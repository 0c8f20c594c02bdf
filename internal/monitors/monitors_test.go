package monitors

import (
	"math"
	"slices"
	"strings"
	"testing"

	"davide/internal/sensor"
)

func TestClassString(t *testing.T) {
	names := map[Class]string{
		IPMI:          "IPMI/BMC",
		ArduPower:     "ArduPower",
		PowerInsight:  "PowerInsight",
		HDEEM:         "HDEEM",
		EnergyGateway: "D.A.V.I.D.E. EG",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("String(%d) = %q, want %q", c, c.String(), want)
		}
	}
	if !strings.Contains(Class(99).String(), "99") {
		t.Error("unknown class should include number")
	}
}

func TestBuiltinSpecsValid(t *testing.T) {
	for _, c := range []Class{IPMI, ArduPower, PowerInsight, HDEEM, EnergyGateway} {
		spec, err := BuiltinSpec(c, 3000)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%v spec invalid: %v", c, err)
		}
	}
	if _, err := BuiltinSpec(Class(42), 3000); err == nil {
		t.Error("unknown class should error")
	}
}

func TestSpecValidation(t *testing.T) {
	good, _ := BuiltinSpec(EnergyGateway, 3000)
	mut := []func(*Spec){
		func(s *Spec) { s.RawRate = 0 },
		func(s *Spec) { s.OutputRate = 0 },
		func(s *Spec) { s.OutputRate = s.RawRate * 2 },
		func(s *Spec) { s.Bits = 0 },
		func(s *Spec) { s.Bits = 32 },
		func(s *Spec) { s.NoiseLSB = -1 },
		func(s *Spec) { s.ClockOffsetS = -1 },
		func(s *Spec) { s.FullScale = 0 },
	}
	for i, m := range mut {
		s := good
		m(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d should fail", i)
		}
		if _, err := New(s, 1); err == nil {
			t.Errorf("New with mutation %d should fail", i)
		}
	}
}

func TestEGRateMatchesPaper(t *testing.T) {
	spec, err := BuiltinSpec(EnergyGateway, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RawRate != 800e3 {
		t.Errorf("EG raw rate = %v, want 800 kS/s", spec.RawRate)
	}
	if spec.OutputRate != 50e3 {
		t.Errorf("EG output rate = %v, want 50 kS/s", spec.OutputRate)
	}
	if !spec.Averaged {
		t.Error("EG must hardware-average")
	}
}

func TestObserveSampleCounts(t *testing.T) {
	sig := sensor.Const(1000)
	window := 0.1
	for _, c := range []struct {
		class Class
		want  int
	}{
		{ArduPower, 100},      // 1 kS/s * 0.1 s
		{HDEEM, 800},          // 8 kS/s * 0.1 s
		{EnergyGateway, 5000}, // 50 kS/s * 0.1 s
	} {
		m, err := NewBuiltin(c.class, 3000, 1)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := m.Observe(sig, 0, window)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != c.want {
			t.Errorf("%v samples = %d, want %d", c.class, len(samples), c.want)
		}
	}
}

func TestObserveReversedWindow(t *testing.T) {
	m, err := NewBuiltin(EnergyGateway, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe(sensor.Const(1), 1, 0); err == nil {
		t.Error("reversed window should error")
	}
}

// TestObserveRefusesBadWindows holds every monitor class to the sensor
// window check: a NaN or infinite bound is refused before any draw, so
// the next observation matches a twin that never saw the bad window.
func TestObserveRefusesBadWindows(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := [][2]float64{{nan, 1}, {0, nan}, {inf, 1}, {0, inf}, {-inf, 1}, {0, -inf}}
	for _, c := range []Class{IPMI, ArduPower, PowerInsight, HDEEM, EnergyGateway} {
		m, err := NewBuiltin(c, 3000, 4)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewBuiltin(c, 3000, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range bad {
			if out, err := m.Observe(sensor.Const(1), w[0], w[1]); err == nil {
				t.Errorf("%v over [%v, %v]: %d samples, want an error", c, w[0], w[1], len(out))
			}
		}
		got, err := m.Observe(sensor.Const(1000), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Observe(sensor.Const(1000), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || !slices.Equal(got, want) {
			t.Errorf("%v: a refused window moved the sample stream", c)
		}
	}
}

func TestMeasureConstSignalAllAccurate(t *testing.T) {
	// On a constant signal every monitor should be accurate (no dynamics
	// to alias); errors come only from quantisation/noise.
	results, err := CompareAll(sensor.Const(1500), 0, 2.0, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		// IPMI keeps a sizeable error even on a flat signal: its ~50 ms
		// timestamp offset misattributes energy at the window edges.
		limit := 1.0
		if r.Class == IPMI {
			limit = 10.0
		}
		if r.RelErrorPct > limit {
			t.Errorf("%v error on constant signal = %.3f%%, want < %.0f%%", r.Class, r.RelErrorPct, limit)
		}
	}
}

func TestMeasureBurstySignalOrdering(t *testing.T) {
	// The paper's core claim (E4): on bursty signals, estimation error
	// shrinks with sampling rate and hardware averaging. Use a 50 Hz,
	// 20% duty burst train — far above IPMI's Nyquist, near ArduPower's.
	sig := sensor.Sum{
		sensor.Const(400),
		sensor.Square{Low: 0, High: 1600, Period: 0.02, Duty: 0.2, Phase: 0.0013},
	}
	// Average over several seeds to beat sampling luck.
	avg := make(map[Class]float64)
	const seeds = 10
	for s := int64(0); s < seeds; s++ {
		results, err := CompareAll(sig, 0, 1.0, 3000, 1000+s*7)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			avg[r.Class] += r.RelErrorPct / seeds
		}
	}
	if avg[IPMI] < avg[EnergyGateway]*5 {
		t.Errorf("IPMI error %.3f%% should be much worse than EG %.3f%%", avg[IPMI], avg[EnergyGateway])
	}
	if avg[EnergyGateway] > 0.5 {
		t.Errorf("EG error = %.3f%%, want < 0.5%% on 50 Hz bursts", avg[EnergyGateway])
	}
	if avg[HDEEM] > avg[ArduPower] {
		t.Errorf("HDEEM (%.3f%%) should beat ArduPower (%.3f%%)", avg[HDEEM], avg[ArduPower])
	}
}

func TestMeasureSingleSampleIPMI(t *testing.T) {
	// A 1.5-second window gives IPMI a single reading; Measure must still
	// produce an estimate (P * window).
	m, err := NewBuiltin(IPMI, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Measure(sensor.Const(1000), 0, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Samples != 1 {
		t.Fatalf("samples = %d, want 1", r.Samples)
	}
	if math.Abs(r.EstimateJ-1500) > 20 {
		t.Errorf("estimate = %v, want ~1500", r.EstimateJ)
	}
}

func TestMeasureWindowTooShort(t *testing.T) {
	m, err := NewBuiltin(IPMI, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Measure(sensor.Const(1000), 0, 0.1); err == nil {
		t.Error("sub-sample window should error")
	}
}

func TestMeasurePropagatesSignalError(t *testing.T) {
	m, err := NewBuiltin(EnergyGateway, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	bad := sensor.Square{} // invalid: zero period
	if _, err := m.Measure(bad, 0, 1); err == nil {
		t.Error("invalid signal should propagate error")
	}
}

func TestCompareAllClassOrder(t *testing.T) {
	results, err := CompareAll(sensor.Const(100), 0, 2, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []Class{IPMI, ArduPower, PowerInsight, HDEEM, EnergyGateway}
	if len(results) != len(want) {
		t.Fatalf("results = %d, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Class != want[i] {
			t.Errorf("results[%d].Class = %v, want %v", i, r.Class, want[i])
		}
	}
}

func TestMeanPowerReported(t *testing.T) {
	m, err := NewBuiltin(EnergyGateway, 3000, 9)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Measure(sensor.Const(1200), 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.MeanPowerW-1200) > 2 {
		t.Errorf("mean power = %v, want ~1200", r.MeanPowerW)
	}
}
