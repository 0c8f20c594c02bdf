// Package sensor models the power-measurement chain of the D.A.V.I.D.E.
// energy gateway (§III-A1 of the paper): analogue power signals on the
// node's power backplane, the BeagleBone Black's 12-bit SAR ADC sampling at
// up to 800 kS/s, and the hardware boxcar decimation down to 50 kS/s.
//
// Ground-truth power is represented analytically (Signal) so that exact
// energies are available in closed form; samplers then observe that signal
// with quantisation, noise and their own timing. This lets experiments
// measure *estimation error* against a known truth — the core of the
// paper's argument for high-rate, well-synchronised monitoring.
package sensor

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Signal is an analytic power trace: instantaneous power in watts as a
// function of time in seconds, with closed-form energy integration.
type Signal interface {
	// PowerAt returns instantaneous power at time t.
	PowerAt(t float64) float64
	// Energy returns the exact integral of power over [t0, t1].
	Energy(t0, t1 float64) (float64, error)
}

// CheckWindow refuses a window [t0, t1] that is reversed or has a bound
// that is not finite: the one range check of every Signal.Energy,
// EnergyFromSamples, SampleDecimated, and the monitors and gateways above
// them. It is written as what must hold, so a NaN bound fails it.
func CheckWindow(t0, t1 float64) error {
	if t0 <= t1 && !math.IsInf(t0, 0) && !math.IsInf(t1, 0) {
		return nil
	}
	return fmt.Errorf("sensor: window [%g, %g] is reversed or not finite", t0, t1)
}

// Const is a constant-power signal.
type Const float64

// PowerAt implements Signal.
func (c Const) PowerAt(float64) float64 { return float64(c) }

// Energy implements Signal.
func (c Const) Energy(t0, t1 float64) (float64, error) {
	if err := CheckWindow(t0, t1); err != nil {
		return 0, err
	}
	return float64(c) * (t1 - t0), nil
}

// Sine is a sinusoidal power component: Offset + Amp*sin(2*pi*Freq*t+Phase).
// Used to emulate VRM ripple and periodic application phases.
type Sine struct {
	Offset, Amp, Freq, Phase float64
}

// PowerAt implements Signal.
func (s Sine) PowerAt(t float64) float64 {
	return s.Offset + s.Amp*math.Sin(2*math.Pi*s.Freq*t+s.Phase)
}

// Energy implements Signal.
func (s Sine) Energy(t0, t1 float64) (float64, error) {
	if err := CheckWindow(t0, t1); err != nil {
		return 0, err
	}
	if s.Freq == 0 {
		return (s.Offset + s.Amp*math.Sin(s.Phase)) * (t1 - t0), nil
	}
	w := 2 * math.Pi * s.Freq
	anti := func(t float64) float64 { return s.Offset*t - s.Amp/w*math.Cos(w*t+s.Phase) }
	return anti(t1) - anti(t0), nil
}

// Square is a square-wave power signal alternating between Low and High
// with the given Period and duty cycle (fraction of the period at High).
// This is the classic aliasing stressor: application phases shorter than
// the sampling interval of slow monitors.
type Square struct {
	Low, High float64
	Period    float64
	Duty      float64 // (0,1)
	Phase     float64 // time offset in seconds
}

// Validate reports whether the square wave is well-formed.
func (q Square) Validate() error {
	if q.Period <= 0 {
		return errors.New("sensor: square period must be positive")
	}
	if q.Duty <= 0 || q.Duty >= 1 {
		return errors.New("sensor: square duty must be in (0,1)")
	}
	return nil
}

// PowerAt implements Signal.
func (q Square) PowerAt(t float64) float64 {
	frac := fmod(t-q.Phase, q.Period)
	if frac < 0 {
		frac += q.Period
	}
	if frac < q.Duty*q.Period {
		return q.High
	}
	return q.Low
}

// fmod is math.Mod bit for bit, without its shift-subtract loop where one
// fused multiply-add is provably exact: finite x, y > 0 and a quotient
// below 2^52. The rounded quotient is monotone and integers below 2^52 are
// representable, so q is floor(|x|/y) or one more. |x| - q*y is a multiple
// of y's ulp no larger than y, hence representable, hence what the
// single-rounding FMA returns; when q was one too many it is the true
// remainder minus y, and adding y back is exact because the true remainder
// is representable. Everything else is math.Mod's.
func fmod(x, y float64) float64 {
	ax := math.Abs(x)
	if !(y > 0 && ax <= math.MaxFloat64) {
		return math.Mod(x, y)
	}
	if ax < y {
		return x
	}
	q := math.Trunc(ax / y)
	if q >= 1<<52 {
		return math.Mod(x, y)
	}
	r := math.FMA(-q, y, ax)
	if r < 0 {
		r += y
	}
	return math.Copysign(r, x)
}

// Energy implements Signal. Exact: counts whole periods plus the partial
// head and tail.
func (q Square) Energy(t0, t1 float64) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if err := CheckWindow(t0, t1); err != nil {
		return 0, err
	}
	// Energy over [0, t] from phase origin, then difference.
	e := func(t float64) float64 {
		full := math.Floor(t / q.Period)
		rem := t - full*q.Period
		perPeriod := q.High*q.Duty*q.Period + q.Low*(1-q.Duty)*q.Period
		head := 0.0
		hi := q.Duty * q.Period
		if rem <= hi {
			head = q.High * rem
		} else {
			head = q.High*hi + q.Low*(rem-hi)
		}
		return full*perPeriod + head
	}
	return e(t1-q.Phase) - e(t0-q.Phase), nil
}

// Sum superimposes several signals (e.g. baseline + ripple + phase bursts).
type Sum []Signal

// PowerAt implements Signal.
func (ss Sum) PowerAt(t float64) float64 {
	p := 0.0
	for _, s := range ss {
		p += s.PowerAt(t)
	}
	return p
}

// Energy implements Signal.
func (ss Sum) Energy(t0, t1 float64) (float64, error) {
	if err := CheckWindow(t0, t1); err != nil {
		return 0, err
	}
	e := 0.0
	for _, s := range ss {
		v, err := s.Energy(t0, t1)
		if err != nil {
			return 0, err
		}
		e += v
	}
	return e, nil
}

// Piecewise is a piecewise-constant power trace built from simulation
// events: power changes at breakpoints and holds in between. It is the
// bridge between the virtual-time simulation (node power changes when jobs
// start/stop or DVFS changes) and the sampling chain.
type Piecewise struct {
	times  []float64 // breakpoint times, ascending
	powers []float64 // power from times[i] until times[i+1]
}

// NewPiecewise creates a trace with the given initial power from time t0.
func NewPiecewise(t0, power float64) *Piecewise {
	return &Piecewise{times: []float64{t0}, powers: []float64{power}}
}

// Set records a power change at time t. Times must be non-decreasing; a
// repeated time overwrites the last segment.
func (p *Piecewise) Set(t, power float64) error {
	last := p.times[len(p.times)-1]
	switch {
	case math.IsNaN(t) || math.IsNaN(power):
		return errors.New("sensor: NaN in piecewise trace")
	case t < last:
		return fmt.Errorf("sensor: breakpoint %g before last %g", t, last)
	case t == last:
		p.powers[len(p.powers)-1] = power
	default:
		p.times = append(p.times, t)
		p.powers = append(p.powers, power)
	}
	return nil
}

// Segments returns the number of constant segments.
func (p *Piecewise) Segments() int { return len(p.times) }

// Start returns the first breakpoint time.
func (p *Piecewise) Start() float64 { return p.times[0] }

// End returns the last breakpoint time.
func (p *Piecewise) End() float64 { return p.times[len(p.times)-1] }

// PowerAt implements Signal. Before the first breakpoint it returns the
// first power; after the last it holds the last power.
func (p *Piecewise) PowerAt(t float64) float64 {
	i := sort.SearchFloat64s(p.times, t)
	// SearchFloat64s returns the first index with times[i] >= t.
	if i < len(p.times) && p.times[i] == t {
		return p.powers[i]
	}
	if i == 0 {
		return p.powers[0]
	}
	return p.powers[i-1]
}

// Energy implements Signal with exact piecewise integration.
func (p *Piecewise) Energy(t0, t1 float64) (float64, error) {
	if err := CheckWindow(t0, t1); err != nil {
		return 0, err
	}
	if t1 == t0 {
		return 0, nil
	}
	e := 0.0
	// Walk segments overlapping [t0, t1].
	for i := range p.times {
		segStart := p.times[i]
		segEnd := math.Inf(1)
		if i+1 < len(p.times) {
			segEnd = p.times[i+1]
		}
		lo := math.Max(segStart, t0)
		hi := math.Min(segEnd, t1)
		if i == 0 && t0 < segStart {
			// Extend the first power backwards.
			e += p.powers[0] * (math.Min(segStart, t1) - t0)
		}
		if hi > lo {
			e += p.powers[i] * (hi - lo)
		}
	}
	return e, nil
}
