package sensor

import (
	"math"
	"math/rand"
	"testing"
)

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestSampleDecimatedMatchesTwoPass holds the one synthesis loop to the
// reference boxcar: two ADCs on one seed, Decimate(SampleSignal) against
// SampleDecimated, every T and P equal on bits. Both raw counts leave a
// partial group for every n > 1, and the second window only agrees if the
// first left both noise streams at the same position.
func TestSampleDecimatedMatchesTwoPass(t *testing.T) {
	sig := Sum{Const(311), Square{High: 933, Period: 2.37, Duty: 0.374, Phase: 0.41}, Sine{Amp: 40, Freq: 117}}
	const rate = 64e3
	windows := [][2]float64{{0.25, 0.25 + 1003.5/rate}, {6000.3, 6000.3 + 1005.5/rate}}
	for _, n := range []int{1, 2, 7, 16} {
		ref, err := NewADC(rate, 12, 3000, 0.7, 50e-9, 99)
		if err != nil {
			t.Fatal(err)
		}
		one, _ := NewADC(rate, 12, 3000, 0.7, 50e-9, 99)
		d, _ := NewDecimator(n)
		for w, win := range windows {
			raw, err := ref.SampleSignal(sig, win[0], win[1])
			if err != nil {
				t.Fatal(err)
			}
			if n > 1 && len(raw)%n == 0 {
				t.Fatalf("n=%d window %d: %d raw samples leave no partial group", n, w, len(raw))
			}
			want := d.Decimate(raw)
			got, err := one.SampleDecimated(sig, win[0], win[1], n)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d window %d: %d samples, want %d", n, w, len(got), len(want))
			}
			for i := range want {
				if !sameBits(got[i].T, want[i].T) || !sameBits(got[i].P, want[i].P) {
					t.Fatalf("n=%d window %d sample %d: %+v, want %+v", n, w, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSampleDecimatedRefusals: a window the loop cannot run is an error,
// not a makeslice panic, and costs the noise stream nothing.
func TestSampleDecimatedRefusals(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	newADC := func() *ADC {
		a, err := NewADC(1, 12, 3000, 0.5, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, c := range []struct {
		name   string
		t0, t1 float64
		n      int
	}{
		{"NaN t1", 0, nan, 1},
		{"NaN t0", nan, 1, 1},
		{"+Inf t0", inf, 1, 1},
		{"+Inf t1", 0, inf, 16},
		{"-Inf t0", -inf, 0, 1},
		{"-Inf t1", 0, -inf, 1},
		{"Inf both", inf, inf, 1},
		{"1e300", 0, 1e300, 16},
		{"reversed", 1, 0, 1},
		{"factor 0", 0, 1, 0},
		{"one over MaxRawSamples", 0, MaxRawSamples + 1, MaxRawSamples},
	} {
		a, twin := newADC(), newADC()
		if out, err := a.SampleDecimated(Const(1), c.t0, c.t1, c.n); err == nil {
			t.Errorf("%s: %d samples, want an error", c.name, len(out))
		}
		if a.rng.Int63() != twin.rng.Int63() {
			t.Errorf("%s: the refused call took a draw", c.name)
		}
	}
	a := newADC()
	if out, err := a.SampleDecimated(Const(1), 5, 5, 16); err != nil || out == nil || len(out) != 0 {
		t.Errorf("zero-length window = %v, %v; want [] and no error", out, err)
	}
	if testing.Short() {
		return // the accepted bound is 16.8 M conversions
	}
	out, err := a.SampleDecimated(Const(1000), 0, MaxRawSamples, MaxRawSamples)
	if err != nil || len(out) != 1 {
		t.Errorf("MaxRawSamples conversions = %d samples, %v; want 1 and no error", len(out), err)
	}
}

// squareModPowerAt is Square.PowerAt as it stood while it called math.Mod.
func squareModPowerAt(q Square, t float64) float64 {
	frac := math.Mod(t-q.Phase, q.Period)
	if frac < 0 {
		frac += q.Period
	}
	if frac < q.Duty*q.Period {
		return q.High
	}
	return q.Low
}

func TestSquarePowerAtMatchesMod(t *testing.T) {
	q := Square{Low: 3, High: 933, Period: 2.37, Duty: 0.374, Phase: 0.41}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1_000_000; i++ {
		at := -1 + float64(i)*3.6e-3 + rng.NormFloat64()*50e-9 // an hour, from before the phase origin
		if got, want := fmod(at-q.Phase, q.Period), math.Mod(at-q.Phase, q.Period); !sameBits(got, want) {
			t.Fatalf("fmod(%v, %v) = %v, math.Mod = %v", at-q.Phase, q.Period, got, want)
		}
		if got, want := q.PowerAt(at), squareModPowerAt(q, at); got != want {
			t.Fatalf("PowerAt(%v) = %v, want %v", at, got, want)
		}
	}
}

// FuzzFmod holds fmod to math.Mod on bits over raw bit patterns (any NaN
// equals any NaN).
func FuzzFmod(f *testing.F) {
	inf := math.Inf(1)
	add := func(x, y float64) { f.Add(math.Float64bits(x), math.Float64bits(y)) }
	special := []float64{0, math.Copysign(0, -1), inf, -inf, math.NaN(), 1, -2.5,
		math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, -math.MaxFloat64}
	for _, x := range special {
		for _, y := range special {
			add(x, y)
		}
	}
	add(7.5, -2)     // y <= 0 uses |y|
	add(-1.5, 2.37)  // |x| < y
	add(1e300, 1e-5) // quotient past 2^52
	// x = k·y and its neighbours, up to the last quotient the FMA path takes.
	for _, y := range []float64{3, 2.37, 0.1, 2.9999999999999996, 1e-310, 0x1p-1022} {
		for _, k := range []float64{1, 2, 3, 1000, 1<<20 + 1, 1<<51 + 1, 1<<52 - 1, 1 << 52} {
			x := k * y
			add(x, y)
			add(-x, y)
			add(math.Nextafter(x, inf), y)
			add(math.Nextafter(x, 0), y)
		}
	}
	// The benchmark's range: an instant in [0, 6000] against a period in [2, 3).
	for i := 0; i < 100; i++ {
		add(60*float64(i)+0.0137*float64(i*i), 2+0.01*float64(i))
	}
	f.Fuzz(func(t *testing.T, xbits, ybits uint64) {
		x, y := math.Float64frombits(xbits), math.Float64frombits(ybits)
		if got, want := fmod(x, y), math.Mod(x, y); !sameBits(got, want) {
			t.Fatalf("fmod(%v, %v) = %v (%#x), math.Mod = %v (%#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
