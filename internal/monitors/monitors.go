// Package monitors models the four classes of node power-monitoring
// infrastructure the paper compares in §V-C:
//
//   - IPMI/BMC class: ~1 S/s instantaneous readings, no timestamping
//     (timestamps come from the poller's clock with large offset error),
//     affected by aliasing noise — the baseline every HPC site has;
//   - HDEEM class (Hackenberg et al.): Hall-effect sensors + FPGA at up to
//     8 kS/s with hardware-side averaging and accurate timestamps, but
//     accessible only through the BMC;
//   - ArduPower / PowerInsight class: open SoC readers with external ADCs
//     limited to ~1 kS/s, custom interfaces, no hardware averaging;
//   - D.A.V.I.D.E. energy gateway (EG): 800 kS/s ADC hardware-averaged to
//     50 kS/s, PTP-synchronised timestamps, published over MQTT.
//
// Each monitor observes a ground-truth sensor.Signal and produces a sample
// train plus an energy estimate; experiments compare those against the
// closed-form truth.
package monitors

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"davide/internal/sensor"
)

// Class identifies a monitoring-infrastructure class.
type Class int

// Monitor classes, ordered roughly by capability.
const (
	IPMI Class = iota
	ArduPower
	PowerInsight
	HDEEM
	EnergyGateway
)

// String returns the class name as used in the paper.
func (c Class) String() string {
	switch c {
	case IPMI:
		return "IPMI/BMC"
	case ArduPower:
		return "ArduPower"
	case PowerInsight:
		return "PowerInsight"
	case HDEEM:
		return "HDEEM"
	case EnergyGateway:
		return "D.A.V.I.D.E. EG"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Spec describes a monitor's sampling chain.
type Spec struct {
	Class        Class
	RawRate      float64 // ADC conversions per second
	OutputRate   float64 // delivered samples per second (after averaging)
	Averaged     bool    // true when hardware averages between outputs
	Bits         int     // ADC resolution
	NoiseLSB     float64 // conversion noise
	ClockOffsetS float64 // RMS timestamp offset vs global time (sync quality)
	FullScale    float64 // watts
}

// Validate reports whether the spec is self-consistent.
func (s Spec) Validate() error {
	switch {
	case s.RawRate <= 0 || s.OutputRate <= 0:
		return errors.New("monitors: rates must be positive")
	case s.OutputRate > s.RawRate:
		return errors.New("monitors: output rate exceeds raw rate")
	case s.Bits < 1 || s.Bits > 24:
		return errors.New("monitors: bits out of range")
	case s.NoiseLSB < 0 || s.ClockOffsetS < 0:
		return errors.New("monitors: negative noise or clock offset")
	case s.FullScale <= 0:
		return errors.New("monitors: full scale must be positive")
	}
	return nil
}

// BuiltinSpec returns the published characteristics of each class, scaled
// to a node with the given full-scale power.
func BuiltinSpec(c Class, fullScale float64) (Spec, error) {
	switch c {
	case IPMI:
		// Instantaneous reading about once per second, polled over the
		// management LAN: tens of milliseconds of timestamp uncertainty.
		return Spec{Class: c, RawRate: 1, OutputRate: 1, Averaged: false,
			Bits: 10, NoiseLSB: 1.0, ClockOffsetS: 50e-3, FullScale: fullScale}, nil
	case ArduPower:
		return Spec{Class: c, RawRate: 1000, OutputRate: 1000, Averaged: false,
			Bits: 10, NoiseLSB: 1.0, ClockOffsetS: 5e-3, FullScale: fullScale}, nil
	case PowerInsight:
		return Spec{Class: c, RawRate: 1000, OutputRate: 1000, Averaged: false,
			Bits: 12, NoiseLSB: 1.0, ClockOffsetS: 5e-3, FullScale: fullScale}, nil
	case HDEEM:
		// 8 kS/s with FPGA-side averaging and good timestamps, but
		// readings surface through the BMC.
		return Spec{Class: c, RawRate: 64e3, OutputRate: 8e3, Averaged: true,
			Bits: 12, NoiseLSB: 0.7, ClockOffsetS: 100e-6, FullScale: fullScale}, nil
	case EnergyGateway:
		// The paper's EG: 800 kS/s hardware-averaged to 50 kS/s, PTP sync
		// (sub-10-microsecond offsets, cf. Libri et al. [13]).
		return Spec{Class: c, RawRate: 800e3, OutputRate: 50e3, Averaged: true,
			Bits: 12, NoiseLSB: 0.5, ClockOffsetS: 5e-6, FullScale: fullScale}, nil
	default:
		return Spec{}, fmt.Errorf("monitors: unknown class %d", int(c))
	}
}

// Monitor samples a ground-truth signal according to its Spec.
type Monitor struct {
	spec   Spec
	adc    *sensor.ADC
	factor int // raw conversions averaged into one delivered sample
	rng    *rand.Rand
}

// New builds a monitor from a spec with a deterministic seed.
func New(spec Spec, seed int64) (*Monitor, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	adc, err := sensor.NewADC(spec.RawRate, spec.Bits, spec.FullScale, spec.NoiseLSB, seed)
	if err != nil {
		return nil, err
	}
	factor := 1
	if spec.Averaged {
		factor = int(math.Round(spec.RawRate / spec.OutputRate))
		if factor < 1 {
			factor = 1
		}
	}
	return &Monitor{spec: spec, adc: adc, factor: factor, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}, nil
}

// NewBuiltin builds a monitor of the given class.
func NewBuiltin(c Class, fullScale float64, seed int64) (*Monitor, error) {
	spec, err := BuiltinSpec(c, fullScale)
	if err != nil {
		return nil, err
	}
	return New(spec, seed)
}

// Spec returns the monitor's specification.
func (m *Monitor) Spec() Spec { return m.spec }

// Observe samples the signal over [t0, t1) and returns the delivered sample
// train with the monitor's timestamp error applied: every returned
// timestamp is shifted by one per-run clock offset drawn from the spec's
// RMS value (the monitor's clock is off by a constant during a short
// window).
func (m *Monitor) Observe(sig sensor.Signal, t0, t1 float64) ([]sensor.Sample, error) {
	if err := sensor.CheckWindow(t0, t1); err != nil {
		return nil, err
	}
	adc := m.adc
	if !m.spec.Averaged {
		// Non-averaged monitors convert instantaneously at OutputRate:
		// model by sampling with a slow ADC at the output rate (factor 1).
		var err error
		adc, err = sensor.NewADC(m.spec.OutputRate, m.spec.Bits, m.spec.FullScale, m.spec.NoiseLSB, m.rng.Int63())
		if err != nil {
			return nil, err
		}
	}
	raw, err := adc.SampleDecimated(sig, t0, t1, m.factor)
	if err != nil {
		return nil, err
	}
	offset := m.rng.NormFloat64() * m.spec.ClockOffsetS
	for i := range raw {
		raw[i].T += offset
	}
	return raw, nil
}

// Result summarises one observation window.
type Result struct {
	Class       Class
	Samples     int
	EstimateJ   float64 // energy estimated from the sample train
	TruthJ      float64 // closed-form energy of the signal
	AbsErrorJ   float64
	RelErrorPct float64
	MeanPowerW  float64
}

// Measure runs a full observation and computes the energy-estimation error
// against the analytic truth.
func (m *Monitor) Measure(sig sensor.Signal, t0, t1 float64) (Result, error) {
	samples, err := m.Observe(sig, t0, t1)
	if err != nil {
		return Result{}, err
	}
	truth, err := sig.Energy(t0, t1)
	if err != nil {
		return Result{}, err
	}
	res := Result{Class: m.spec.Class, Samples: len(samples), TruthJ: truth}
	if len(samples) >= 2 {
		est, err := sensor.EnergyFromSamples(samples, t0, t1)
		if err != nil {
			return Result{}, err
		}
		res.EstimateJ = est
	} else if len(samples) == 1 {
		// Single instantaneous reading: the only possible estimate is
		// P * window, exactly the aliasing-prone IPMI behaviour.
		res.EstimateJ = samples[0].P * (t1 - t0)
	} else {
		return Result{}, errors.New("monitors: window too short for any sample")
	}
	if mp, err := sensor.MeanPower(samples); err == nil {
		res.MeanPowerW = mp
	}
	res.AbsErrorJ = math.Abs(res.EstimateJ - truth)
	if truth != 0 {
		res.RelErrorPct = 100 * res.AbsErrorJ / truth
	}
	return res, nil
}

// CompareAll measures the same signal with one monitor of each class and
// returns results ordered by class capability.
func CompareAll(sig sensor.Signal, t0, t1, fullScale float64, seed int64) ([]Result, error) {
	classes := []Class{IPMI, ArduPower, PowerInsight, HDEEM, EnergyGateway}
	out := make([]Result, 0, len(classes))
	for i, c := range classes {
		m, err := NewBuiltin(c, fullScale, seed+int64(i)*101)
		if err != nil {
			return nil, err
		}
		r, err := m.Measure(sig, t0, t1)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", c, err)
		}
		out = append(out, r)
	}
	return out, nil
}
