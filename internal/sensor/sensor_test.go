package sensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestConstSignal(t *testing.T) {
	c := Const(100)
	if c.PowerAt(5) != 100 {
		t.Error("PowerAt wrong")
	}
	e, err := c.Energy(0, 10)
	if err != nil || e != 1000 {
		t.Errorf("Energy = %v,%v want 1000", e, err)
	}
	if _, err := c.Energy(5, 1); err == nil {
		t.Error("reversed window should error")
	}
}

func TestSineSignalEnergy(t *testing.T) {
	s := Sine{Offset: 50, Amp: 10, Freq: 2}
	// Over whole periods the sine integrates to zero.
	e, err := s.Energy(0, 1)
	if err != nil || !almost(e, 50, 1e-9) {
		t.Errorf("Energy = %v,%v want 50", e, err)
	}
	// Zero-frequency degenerates to a constant.
	dc := Sine{Offset: 50, Amp: 10, Freq: 0, Phase: math.Pi / 2}
	e, err = dc.Energy(0, 2)
	if err != nil || !almost(e, 120, 1e-9) {
		t.Errorf("DC sine energy = %v,%v want 120", e, err)
	}
	if _, err := s.Energy(1, 0); err == nil {
		t.Error("reversed window should error")
	}
}

func TestSineEnergyMatchesNumeric(t *testing.T) {
	s := Sine{Offset: 100, Amp: 30, Freq: 7.3, Phase: 0.4}
	want := numericEnergy(s, 0.1, 2.7, 1e6)
	got, err := s.Energy(0.1, 2.7)
	if err != nil || !almost(got, want, 1e-3) {
		t.Errorf("Energy = %v,%v want ~%v", got, err, want)
	}
}

func TestSquareSignal(t *testing.T) {
	q := Square{Low: 100, High: 300, Period: 1, Duty: 0.25}
	if q.PowerAt(0.1) != 300 {
		t.Error("high phase wrong")
	}
	if q.PowerAt(0.5) != 100 {
		t.Error("low phase wrong")
	}
	if q.PowerAt(-0.9) != 300 { // -0.9 mod 1 = 0.1
		t.Error("negative time wrapping wrong")
	}
	// Mean = 300*0.25 + 100*0.75 = 150 per unit time.
	e, err := q.Energy(0, 4)
	if err != nil || !almost(e, 600, 1e-9) {
		t.Errorf("Energy = %v,%v want 600", e, err)
	}
	// Partial period.
	e, err = q.Energy(0, 0.25)
	if err != nil || !almost(e, 75, 1e-9) {
		t.Errorf("head energy = %v,%v want 75", e, err)
	}
	e, err = q.Energy(0.25, 1)
	if err != nil || !almost(e, 75, 1e-9) {
		t.Errorf("tail energy = %v,%v want 75", e, err)
	}
}

func TestSquareValidation(t *testing.T) {
	if err := (Square{Period: 0, Duty: 0.5}).Validate(); err == nil {
		t.Error("zero period should error")
	}
	if err := (Square{Period: 1, Duty: 0}).Validate(); err == nil {
		t.Error("duty 0 should error")
	}
	if err := (Square{Period: 1, Duty: 1}).Validate(); err == nil {
		t.Error("duty 1 should error")
	}
	if _, err := (Square{Period: 1, Duty: 0.5}).Energy(1, 0); err == nil {
		t.Error("reversed window should error")
	}
}

func TestSquareEnergyMatchesNumeric(t *testing.T) {
	q := Square{Low: 80, High: 250, Period: 0.013, Duty: 0.37, Phase: 0.002}
	want := numericEnergy(q, 0.05, 0.9, 2e6)
	got, err := q.Energy(0.05, 0.9)
	if err != nil || !almost(got, want, 0.05) {
		t.Errorf("Energy = %v,%v want ~%v", got, err, want)
	}
}

func TestSumSignal(t *testing.T) {
	s := Sum{Const(100), Sine{Amp: 5, Freq: 50}}
	if !almost(s.PowerAt(0), 100, 1e-12) {
		t.Error("Sum PowerAt wrong")
	}
	e, err := s.Energy(0, 1)
	if err != nil || !almost(e, 100, 1e-9) {
		t.Errorf("Sum energy = %v,%v want 100", e, err)
	}
	bad := Sum{Const(1), Square{}}
	if _, err := bad.Energy(0, 1); err == nil {
		t.Error("Sum with invalid member should error")
	}
}

func TestPiecewise(t *testing.T) {
	p := NewPiecewise(0, 100)
	if err := p.Set(10, 200); err != nil {
		t.Fatal(err)
	}
	if err := p.Set(20, 50); err != nil {
		t.Fatal(err)
	}
	if p.Segments() != 3 || p.Start() != 0 || p.End() != 20 {
		t.Errorf("segments/start/end = %d/%v/%v", p.Segments(), p.Start(), p.End())
	}
	for _, c := range []struct{ t, want float64 }{
		{-5, 100}, {0, 100}, {5, 100}, {10, 200}, {15, 200}, {20, 50}, {100, 50},
	} {
		if got := p.PowerAt(c.t); got != c.want {
			t.Errorf("PowerAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	e, err := p.Energy(0, 20)
	if err != nil || !almost(e, 100*10+200*10, 1e-9) {
		t.Errorf("Energy = %v,%v want 3000", e, err)
	}
	// Window extending past the last breakpoint holds the last power.
	e, err = p.Energy(15, 25)
	if err != nil || !almost(e, 200*5+50*5, 1e-9) {
		t.Errorf("Energy(15,25) = %v,%v want 1250", e, err)
	}
	// Window before the first breakpoint extends the first power backwards.
	e, err = p.Energy(-10, 5)
	if err != nil || !almost(e, 100*15, 1e-9) {
		t.Errorf("Energy(-10,5) = %v,%v want 1500", e, err)
	}
	if _, err := p.Energy(5, 1); err == nil {
		t.Error("reversed window should error")
	}
	z, err := p.Energy(5, 5)
	if err != nil || z != 0 {
		t.Errorf("zero window energy = %v,%v", z, err)
	}
}

func TestPiecewiseSetRules(t *testing.T) {
	p := NewPiecewise(0, 1)
	if err := p.Set(-1, 5); err == nil {
		t.Error("past breakpoint should error")
	}
	if err := p.Set(0, 7); err != nil { // overwrite current
		t.Fatal(err)
	}
	if p.PowerAt(0) != 7 || p.Segments() != 1 {
		t.Errorf("overwrite failed: %v segments %d", p.PowerAt(0), p.Segments())
	}
	if err := p.Set(1, math.NaN()); err == nil {
		t.Error("NaN power should error")
	}
}

func TestADCValidation(t *testing.T) {
	if _, err := NewADC(0, 12, 100, 0, 1); err == nil {
		t.Error("zero rate should error")
	}
	if _, err := NewADC(1e3, 0, 100, 0, 1); err == nil {
		t.Error("zero bits should error")
	}
	if _, err := NewADC(1e3, 30, 100, 0, 1); err == nil {
		t.Error("too many bits should error")
	}
	if _, err := NewADC(1e3, 12, 0, 0, 1); err == nil {
		t.Error("zero full-scale should error")
	}
	if _, err := NewADC(1e3, 12, 100, -1, 1); err == nil {
		t.Error("negative noise should error")
	}
}

func TestADCQuantisation(t *testing.T) {
	a, err := NewADC(1e3, 12, 4096, 0, 1) // LSB = 1 W exactly
	if err != nil {
		t.Fatal(err)
	}
	if a.LSB() != 1 {
		t.Fatalf("LSB = %v, want 1", a.LSB())
	}
	if got := a.Convert(100.4); got != 100 {
		t.Errorf("Convert(100.4) = %v, want 100", got)
	}
	if got := a.Convert(100.6); got != 101 {
		t.Errorf("Convert(100.6) = %v, want 101", got)
	}
	if got := a.Convert(-5); got != 0 {
		t.Errorf("Convert(-5) = %v, want 0 (clamped)", got)
	}
	if got := a.Convert(9999); got != 4096 {
		t.Errorf("Convert(9999) = %v, want 4096 (clamped)", got)
	}
}

func TestADCSampleCount(t *testing.T) {
	a := BBBADC(1)
	samples, err := a.SampleSignal(Const(1000), 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8000 { // 800 kS/s * 10 ms
		t.Errorf("samples = %d, want 8000", len(samples))
	}
	if _, err := a.SampleSignal(Const(1), 1, 0); err == nil {
		t.Error("reversed window should error")
	}
}

func TestADCNoiseStatistics(t *testing.T) {
	a, err := NewADC(100e3, 12, 3000, 2.0, 42)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := a.SampleSignal(Const(1500), 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := MeanPower(samples)
	if err != nil {
		t.Fatal(err)
	}
	// Noise is zero-mean: average should be close to truth.
	if !almost(mean, 1500, 1.0) {
		t.Errorf("mean = %v, want ~1500", mean)
	}
}

// TestDecimator pins the reference boxcar the two-pass tests decimate
// with: group means at group-centre instants, a trailing partial group
// dropped, and n = 1 a copy.
func TestDecimator(t *testing.T) {
	in := []Sample{
		{0, 1}, {1, 2}, {2, 3}, {3, 4},
		{4, 10}, {5, 10}, {6, 10}, {7, 10},
		{8, 99}, // trailing partial group dropped
	}
	out := boxcar(in, 4)
	if len(out) != 2 {
		t.Fatalf("out = %v, want 2 groups", out)
	}
	if !almost(out[0].P, 2.5, 1e-12) || !almost(out[0].T, 1.5, 1e-12) {
		t.Errorf("group0 = %+v", out[0])
	}
	if !almost(out[1].P, 10, 1e-12) || !almost(out[1].T, 5.5, 1e-12) {
		t.Errorf("group1 = %+v", out[1])
	}
	// N=1 is identity (copy).
	id := boxcar(in, 1)
	if len(id) != len(in) || id[0] != in[0] {
		t.Error("N=1 should copy input")
	}
	id[0].P = -1
	if in[0].P == -1 {
		t.Error("N=1 must copy, not alias")
	}
}

func TestDecimationPreservesEnergy(t *testing.T) {
	// Boxcar decimation preserves the mean, hence the rectangle-integrated
	// energy over whole groups.
	a, err := NewADC(800e3, 12, 3000, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	sig := Square{Low: 500, High: 2500, Period: 1e-3, Duty: 0.5}
	raw, err := a.SampleSignal(sig, 0, 0.064)
	if err != nil {
		t.Fatal(err)
	}
	dec := boxcar(raw, 16)
	eRaw, err := EnergyFromSamples(raw, 0, 0.064)
	if err != nil {
		t.Fatal(err)
	}
	eDec, err := EnergyFromSamples(dec, 0, 0.064)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(eRaw, eDec, 0.02*eRaw) {
		t.Errorf("decimated energy %v deviates from raw %v", eDec, eRaw)
	}
}

func TestEnergyFromSamplesExactForConst(t *testing.T) {
	samples := []Sample{{0, 100}, {1, 100}, {2, 100}, {3, 100}}
	e, err := EnergyFromSamples(samples, 0, 4)
	if err != nil || !almost(e, 400, 1e-12) {
		t.Errorf("energy = %v,%v want 400", e, err)
	}
	// Clipped window.
	e, err = EnergyFromSamples(samples, 1, 3)
	if err != nil || !almost(e, 200, 1e-12) {
		t.Errorf("clipped energy = %v,%v want 200", e, err)
	}
}

func TestEnergyFromSamplesErrors(t *testing.T) {
	if _, err := EnergyFromSamples(nil, 0, 1); err == nil {
		t.Error("empty should error")
	}
	if _, err := EnergyFromSamples([]Sample{{0, 1}}, 0, 1); err == nil {
		t.Error("single sample should error")
	}
	if _, err := EnergyFromSamples([]Sample{{0, 1}, {0, 1}}, 0, 1); err == nil {
		t.Error("non-increasing timestamps should error")
	}
	if _, err := EnergyFromSamples([]Sample{{0, 1}, {1, 1}}, 1, 0); err == nil {
		t.Error("reversed window should error")
	}
	if _, err := MeanPower(nil); err == nil {
		t.Error("MeanPower empty should error")
	}
}

func TestEnergyRefusesBadWindows(t *testing.T) {
	// A NaN or an infinity at either bound, and a reversed span.
	badWindows := []struct {
		name   string
		t0, t1 float64
	}{
		{"NaN t0", math.NaN(), 1},
		{"NaN t1", 0, math.NaN()},
		{"+Inf t0", math.Inf(1), 1},
		{"+Inf t1", 0, math.Inf(1)},
		{"-Inf t0", math.Inf(-1), 1},
		{"-Inf t1", 0, math.Inf(-1)},
		{"reversed", 1, 0},
	}
	pw := NewPiecewise(0, 100)
	if err := pw.Set(0.5, 200); err != nil {
		t.Fatal(err)
	}
	train := []Sample{{0, 1}, {0.5, 1}, {1, 1}}
	entries := map[string]func(t0, t1 float64) (float64, error){
		"Const":     Const(100).Energy,
		"Sine":      Sine{Offset: 100, Amp: 10, Freq: 3}.Energy,
		"Square":    Square{Low: 0, High: 100, Period: 1, Duty: 0.5}.Energy,
		"Sum":       Sum{Const(100), Const(5)}.Energy,
		"empty Sum": Sum{}.Energy,
		"Piecewise": pw.Energy,
		"EnergyFromSamples": func(t0, t1 float64) (float64, error) {
			return EnergyFromSamples(train, t0, t1)
		},
	}
	for name, energy := range entries {
		for _, w := range badWindows {
			if e, err := energy(w.t0, w.t1); err == nil {
				t.Errorf("%s over %s = %v, want an error", name, w.name, e)
			}
		}
		for _, w := range [][2]float64{{0, 1}, {0.5, 0.5}} {
			if _, err := energy(w[0], w[1]); err != nil {
				t.Errorf("%s over [%v, %v]: %v", name, w[0], w[1], err)
			}
		}
	}
	if e, err := EnergyFromSamples([]Sample{{math.NaN(), 1}, {1, 1}}, 0, 1); err == nil {
		t.Errorf("NaN sample spacing = %v, want an error", e)
	}
}

// Property: ADC sampling of a constant signal with no noise recovers the
// value to within one LSB.
func TestADCAccuracyProperty(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 3000)
		a, err := NewADC(10e3, 12, 3000, 0, 1)
		if err != nil {
			return false
		}
		got := a.Convert(p)
		return math.Abs(got-p) <= a.LSB()/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: piecewise energy is additive: E(a,c) = E(a,b) + E(b,c).
func TestPiecewiseAdditiveProperty(t *testing.T) {
	f := func(powers []float64, cut float64) bool {
		p := NewPiecewise(0, 100)
		t0 := 0.0
		for i, raw := range powers {
			if i > 10 {
				break
			}
			t0 += 1
			if err := p.Set(t0, math.Mod(math.Abs(raw), 5000)); err != nil {
				return false
			}
		}
		end := t0 + 1
		b := math.Mod(math.Abs(cut), end)
		e1, err1 := p.Energy(0, b)
		e2, err2 := p.Energy(b, end)
		e, err := p.Energy(0, end)
		if err1 != nil || err2 != nil || err != nil {
			return false
		}
		return almost(e1+e2, e, 1e-6*math.Max(1, e))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// numericEnergy integrates a signal by brute-force midpoint rule, used to
// cross-check the closed forms.
func numericEnergy(s Signal, t0, t1 float64, steps int) float64 {
	dt := (t1 - t0) / float64(steps)
	e := 0.0
	for i := 0; i < steps; i++ {
		e += s.PowerAt(t0+(float64(i)+0.5)*dt) * dt
	}
	return e
}

// TestAnalyticVsBruteForce is the DESIGN.md §5.1 ablation: analytic energy
// agrees with brute-force sampling.
func TestAnalyticVsBruteForce(t *testing.T) {
	sig := Sum{
		Const(400),
		Square{Low: 0, High: 1200, Period: 0.004, Duty: 0.3},
		Sine{Amp: 20, Freq: 310},
	}
	want := numericEnergy(sig, 0, 0.5, 4_000_000)
	got, err := sig.Energy(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, want, 1e-3*want) {
		t.Errorf("analytic %v vs numeric %v", got, want)
	}
}
