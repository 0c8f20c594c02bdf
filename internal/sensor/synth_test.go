package sensor

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// boxcar is the reference n:1 decimation of a raw train: each whole
// group of n samples averaged, P and T summed in index order, at the
// group's mean instant; a trailing partial group is dropped, as the
// hardware drops it. At n = 1 it returns a copy of in.
func boxcar(in []Sample, n int) []Sample {
	if n == 1 {
		return append([]Sample(nil), in...)
	}
	out := make([]Sample, 0, len(in)/n)
	for g := 0; g+n <= len(in); g += n {
		sumP, sumT := 0.0, 0.0
		for _, s := range in[g : g+n] {
			sumP += s.P
			sumT += s.T
		}
		out = append(out, Sample{T: sumT / float64(n), P: sumP / float64(n)})
	}
	return out
}

// TestSampleDecimatedMatchesTwoPass holds the one synthesis loop to the
// reference boxcar, boxcar(SampleSignal), on two ADCs of one seed. At
// NoiseLSB 0 every T and P must be equal on bits (a level group's table
// is one point, and at this full scale the codes' sum in watts is
// exact); with noise, every T, and at n = 1 every P too. Both raw counts
// leave a partial group for every n > 1.
func TestSampleDecimatedMatchesTwoPass(t *testing.T) {
	sig := Sum{Const(311), Square{High: 933, Period: 2.37, Duty: 0.374, Phase: 0.41}, Sine{Amp: 40, Freq: 117}}
	const rate = 64e3
	windows := [][2]float64{{0.25, 0.25 + 1003.5/rate}, {6000.3, 6000.3 + 1005.5/rate}}
	for _, noise := range []float64{0, 0.7} {
		for _, n := range []int{1, 2, 7, 16} {
			ref, err := NewADC(rate, 12, 3000, noise, 99)
			if err != nil {
				t.Fatal(err)
			}
			one, _ := NewADC(rate, 12, 3000, noise, 99)
			for w, win := range windows {
				raw, err := ref.SampleSignal(sig, win[0], win[1])
				if err != nil {
					t.Fatal(err)
				}
				if n > 1 && len(raw)%n == 0 {
					t.Fatalf("n=%d window %d: %d raw samples leave no partial group", n, w, len(raw))
				}
				want := boxcar(raw, n)
				got, err := one.SampleDecimated(sig, win[0], win[1], n)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("noise %g n=%d window %d: %d samples, want %d", noise, n, w, len(got), len(want))
				}
				for i := range want {
					if !sameBits(got[i].T, want[i].T) || (noise == 0 || n == 1) && !sameBits(got[i].P, want[i].P) {
						t.Fatalf("noise %g n=%d window %d sample %d: %+v, want %+v", noise, n, w, i, got[i], want[i])
					}
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
		a, err := NewADC(1, 12, 3000, 0.5, 5)
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
		if a.rng.uint64() != twin.rng.uint64() {
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

// twinADC is the per-conversion synthesis loop as it stood before the
// block kernel, kept as the reference the kernel shares no code with: a
// *rand.Rand, one s.PowerAt per conversion at the jittered instant
// (sigma 0 now, so the draw only moves the stream), math.Round. Every
// group converts its n conversions, and a trailing partial group is
// converted and dropped.
//
// With levels set it is the kernel's twin instead: each whole group
// whose n powers are bit-equal and not NaN, where levels.tableFits(n),
// is one rand.Float64 (the same uniform as noise.float64) searched in
// levels.levelCDF, and a trailing partial group draws nothing. Only the
// table is shared with the kernel; the grouping, the order of the draws
// and the sums are the twin's own.
type twinADC struct {
	Rate      float64
	Bits      int
	FullScale float64
	NoiseLSB  float64
	JitterSec float64
	rng       *rand.Rand
	levels    *ADC
}

func newTwinADC(rate float64, bits int, fullScale, noiseLSB float64, seed int64) *twinADC {
	return &twinADC{Rate: rate, Bits: bits, FullScale: fullScale, NoiseLSB: noiseLSB, rng: rand.New(rand.NewSource(seed))}
}

func (a *twinADC) LSB() float64 { return a.FullScale / float64(uint64(1)<<a.Bits) }

func (a *twinADC) convert(p, lsb float64) float64 {
	p += a.rng.NormFloat64() * a.NoiseLSB * lsb
	if p < 0 {
		p = 0
	}
	if p > a.FullScale {
		p = a.FullScale
	}
	code := math.Round(p / lsb)
	return code * lsb
}

func (a *twinADC) SampleDecimated(s Signal, t0, t1 float64, n int) []Sample {
	total := int(math.Floor((t1 - t0) * a.Rate))
	out := make([]Sample, 0, total/n)
	dt, fn := 1/a.Rate, float64(n)
	if a.levels != nil {
		for first := 0; first+n <= total; first += n {
			if p, ok := a.levelSample(s, t0, dt, first, n); ok {
				sumT := 0.0
				for i := 0; i < n; i++ {
					sumT += t0 + float64(first+i)*dt
				}
				out = append(out, Sample{T: sumT / fn, P: p})
				continue
			}
			out = append(out, a.perConversion(s, t0, dt, first, first+n, n)...)
		}
		return out
	}
	return a.perConversion(s, t0, dt, 0, total, n)
}

// perConversion converts instants first to end-1 of the window from t0,
// n to a sample.
func (a *twinADC) perConversion(s Signal, t0, dt float64, first, end, n int) []Sample {
	var out []Sample
	lsb, fn := a.LSB(), float64(n)
	sumP, sumT, k := 0.0, 0.0, 0
	for i := first; i < end; i++ {
		nominal := t0 + float64(i)*dt
		actual := nominal + a.rng.NormFloat64()*a.JitterSec
		p := a.convert(s.PowerAt(actual), lsb)
		if n == 1 {
			out = append(out, Sample{T: nominal, P: p})
			continue
		}
		sumP += p
		sumT += nominal
		if k++; k == n {
			out = append(out, Sample{T: sumT / fn, P: sumP / fn})
			sumP, sumT, k = 0, 0, 0
		}
	}
	return out
}

// levelSample draws the group of instants first to first+n-1 of the
// window from t0 as one level sample, or reports false where the group
// is no level group.
func (a *twinADC) levelSample(s Signal, t0, dt float64, first, n int) (float64, bool) {
	if n < 2 || !a.levels.tableFits(n) {
		return 0, false
	}
	level := s.PowerAt(t0 + float64(first)*dt)
	for i := first + 1; i < first+n; i++ {
		if p := s.PowerAt(t0 + float64(i)*dt); math.Float64bits(p) != math.Float64bits(level) {
			return 0, false
		}
	}
	if math.IsNaN(level) {
		return 0, false
	}
	lo, cdf := a.levels.levelCDF(level, n)
	u := a.rng.Float64()
	code := lo + sort.Search(len(cdf), func(i int) bool { return cdf[i] > u })
	return float64(code) * a.LSB() / float64(n), true
}

// ramp is a Signal powerSpan has no arm for.
type ramp struct{ base, slope float64 }

func (r ramp) PowerAt(t float64) float64 { return r.base + r.slope*t }
func (r ramp) Energy(t0, t1 float64) (float64, error) {
	return r.base*(t1-t0) + r.slope*(t1*t1-t0*t0)/2, nil
}

// TestSampleDecimatedMatchesTwin holds the block kernel to its twins on
// bits: every signal type powerSpan distinguishes (and one it does not),
// factors that divide a block and ones that do not, raw counts either
// side of one and two blocks, three windows back to back on one ADC so a
// window that leaves the stream a draw off shows in the next. Against
// the level twin, every T and P at noise 0 and 0.7. Against the
// per-conversion twin (ED-2): every P at noise 0, where a level table is
// one point and the effect of drawing from it must vanish, every P at
// n = 1, and every T. A second ADC of the same seed repeats the kernel's
// every bit. The squares beyond the first reach each of squareSpan's
// branches: edges on instants, a phase origin inside the windows,
// quotients near and past 2^52, a dozen edges per block, a period
// shorter than a spacing; the windows hold level groups, groups that an
// edge splits within a block and across one, and at n = 256 and 257
// groups whose level breaks only in their last block.
func TestSampleDecimatedMatchesTwin(t *testing.T) {
	const rate, dt = 1000.0, 1 / 1000.0
	counts := []int{255, 256, 257, 513}
	window := func(ci, w int) (t0, t1 float64) {
		span := (float64(counts[ci]) + 0.5) / rate
		t0 = 0.25 + 12.5*float64(ci) + float64(w)*span
		return t0, t0 + span
	}
	at := func(ci, w int, i float64) float64 {
		t0, _ := window(ci, w)
		return t0 + i*dt
	}
	square := Square{Low: 3, High: 933, Period: 0.237, Duty: 0.374, Phase: 0.041}
	sine := Sine{Offset: 100, Amp: 140, Freq: 11.7, Phase: 0.3} // dips below 0: the clamp
	pw := NewPiecewise(0, 900)
	// Breakpoints inside blocks, between instants and on them (the
	// exact-match arm), one on the first instant of a second block.
	for _, bp := range []float64{at(0, 0, 100.5), at(0, 2, 7), at(1, 1, 200), at(3, 0, 300.5), at(3, 2, 256)} {
		if err := pw.Set(bp, bp*100); err != nil {
			t.Fatal(err)
		}
	}
	// Square waves for squareSpan's branches. Period 2 and 0.25 s at 1 ms
	// put edges on instants, or within rounding of them. The origin
	// at 13 s falls inside the second count's windows: blocks that start
	// before it take the per-instant loop, the rest the run fill. A phase
	// of about -4e15 s gives quotients in [2^51, 2^52), where x/Period
	// rounds up to the next integer often and fmod's correction decides
	// the level; the one at 13 - 2^52 crosses 2^52 at 13 s. 40 ms holds
	// six periods per block, 0.7 ms less than one spacing.
	edges := Square{Low: 7, High: 901, Period: 2, Duty: 0.4}
	quarter := Square{Low: 2, High: 1200, Period: 0.25, Duty: 0.5}
	origin := Square{Low: 5, High: 1500, Period: 0.3, Duty: 0.6, Phase: 13}
	bigQuotient := Square{Low: 1, High: 800, Period: 1.3, Duty: 0.45, Phase: -4.1e15}
	pastQuotient := Square{Low: 4, High: 1100, Period: 1, Duty: 0.4, Phase: 13 - 1<<52}
	manyEdges := Square{Low: 9, High: 990, Period: 0.04, Duty: 0.374, Phase: 0.0013}
	short := Square{Low: 6, High: 600, Period: 0.7e-3, Duty: 0.3}
	// An edge on instant i of window w of count ci: Phase = T - 4 and
	// T - Phase = 4 are exact (T is in [16, 64)), so T opens period 2.
	edgeOn := func(ci, w int, i float64) Square {
		q := Square{Low: 17, High: 1300, Period: 2, Duty: 0.5, Phase: at(ci, w, i) - 4}
		if q.PowerAt(at(ci, w, i-1)) == q.PowerAt(at(ci, w, i)) {
			t.Fatalf("no edge on instant %v of window %d of count %d", i, w, counts[ci])
		}
		return q
	}
	edgeFirst := edgeOn(3, 1, 256) // the first instant of the second block
	edgeLast := edgeOn(2, 0, 255)  // the last instant of the first block
	negZero := math.Copysign(0, -1)
	sineInSum := Sum{Const(311), edgeFirst, Sine{Offset: 2, Amp: 1e-9, Freq: 3}}
	if v, ok := blockLevel(sineInSum, at(3, 1, 256), at(3, 1, 511)); ok {
		t.Fatalf("blockLevel %v over a Sum with a Sine part", v)
	}
	signals := map[string]Signal{
		"Const":        Const(2999.9), // noise crosses full scale: the clamp
		"negative":     Const(-0.5),   // noise crosses 0: the other clamp
		"Inf":          Const(math.Inf(1)),
		"NaN":          Const(math.NaN()), // bit-equal, and still no level
		"Square":       square,
		"edges":        edges,
		"quarter":      quarter,
		"origin":       origin,
		"bigQuotient":  bigQuotient,
		"pastQuotient": pastQuotient,
		"manyEdges":    manyEdges,
		"short":        short,
		"squaresInSum": Sum{Const(13), Sum{edges, Sum{origin, bigQuotient}}, quarter, Sum{pastQuotient, manyEdges, short}},
		"Sine":         sine,
		"Sum":          Sum{Const(311), square},
		"nestedSum":    Sum{Const(11), Sum{square, Sum{sine}}, ramp{1, 2}},
		"Piecewise":    pw,
		"default":      ramp{500, 3.5},
		"edgeFirst":    edgeFirst,
		"edgeLast":     edgeLast,
		"negZeroSum":   Sum{Const(negZero), Square{Low: negZero, High: 640, Period: 0.237, Duty: 0.374, Phase: 0.041}},
		"sineInSum":    sineInSum,
	}
	for name, sig := range signals {
		for _, noise := range []float64{0, 0.7} {
			for _, n := range []int{1, 2, 7, 16, 256, 257} {
				got, err := NewADC(rate, 12, 3000, noise, 4242)
				if err != nil {
					t.Fatal(err)
				}
				again, _ := NewADC(rate, 12, 3000, noise, 4242)
				perConv := newTwinADC(rate, 12, 3000, noise, 4242)
				levels := newTwinADC(rate, 12, 3000, noise, 4242)
				levels.levels, _ = NewADC(rate, 12, 3000, noise, 0)
				for ci, count := range counts {
					for w := 0; w < 3; w++ {
						t0, t1 := window(ci, w)
						g, err := got.SampleDecimated(sig, t0, t1, n)
						if err != nil {
							t.Fatal(err)
						}
						a, _ := again.SampleDecimated(sig, t0, t1, n)
						r := perConv.SampleDecimated(sig, t0, t1, n)
						l := levels.SampleDecimated(sig, t0, t1, n)
						if len(g) != count/n || len(a) != len(g) || len(r) != len(g) || len(l) != len(g) {
							t.Fatalf("%s noise %g n=%d count %d window %d: %d samples, again %d, twins %d and %d, want %d",
								name, noise, n, count, w, len(g), len(a), len(r), len(l), count/n)
						}
						for i := range g {
							at := func(twin string) {
								t.Fatalf("%s noise %g n=%d count %d window %d sample %d: %+v, %s %+v, %+v, %+v",
									name, noise, n, count, w, i, g[i], twin, a[i], r[i], l[i])
							}
							switch {
							case !sameBits(g[i].T, a[i].T) || !sameBits(g[i].P, a[i].P):
								at("same seed")
							case !sameBits(g[i].T, l[i].T) || !sameBits(g[i].P, l[i].P):
								at("level twin")
							case !sameBits(g[i].T, r[i].T) || (noise == 0 || n == 1) && !sameBits(g[i].P, r[i].P):
								at("per-conversion twin")
							}
						}
					}
				}
			}
		}
	}
}

// checkBlockLevel fails t where blockLevel reports a level over ts that
// PowerAt does not hold at every instant, on bits. Any NaN equals any
// NaN: which payload a sum of two keeps is the compiler's choice, and the
// kernel takes no NaN level.
func checkBlockLevel(t *testing.T, sig Signal, ts []float64) {
	t.Helper()
	v, ok := blockLevel(sig, ts[0], ts[len(ts)-1])
	if !ok {
		return
	}
	for i, at := range ts {
		if p := sig.PowerAt(at); !sameBits(p, v) {
			t.Fatalf("%#v at %v (instant %d): blockLevel %v (%#x), PowerAt %v (%#x)", sig, at, i, v, math.Float64bits(v), p, math.Float64bits(p))
		}
	}
}

// FuzzPowerSpan holds powerSpan to PowerAt on bits over raw bit patterns:
// Square and Sine parameters, the first instant and the spacing, up to a
// full block of instants, each signal alone and in nested Sums. It holds
// blockLevel to PowerAt too, wherever it reports a level (a Const, and
// Sums of Consts and Squares, over ±0, NaN and ±Inf), and holds it to
// reporting none for any signal with a Sine in it.
func FuzzPowerSpan(f *testing.F) {
	bits := math.Float64bits
	add := func(q Square, s Sine, t0, dt float64, m uint8) {
		f.Add(bits(q.Low), bits(q.High), bits(q.Period), bits(q.Duty), bits(q.Phase),
			bits(s.Offset), bits(s.Amp), bits(s.Freq), bits(s.Phase), bits(t0), bits(dt), m)
	}
	add(Square{Low: 0.1, High: 933, Period: 2.37, Duty: 0.374, Phase: 0.41}, Sine{Amp: 40, Freq: 117, Phase: 0.3}, 6000.3, 1.0/800, 255)
	add(Square{High: 700, Period: 2, Duty: 0.3}, Sine{Offset: 1, Amp: 2, Freq: 3, Phase: 4}, 0, 1.0/64, 15)
	add(Square{Low: math.NaN(), High: math.Inf(1), Period: 0, Duty: 1}, Sine{Freq: math.Inf(-1)}, -1, 0, 0)
	add(Square{Period: -1, Phase: math.NaN()}, Sine{Amp: math.NaN()}, math.Inf(1), math.Inf(-1), 3)
	add(Square{High: 1, Period: 5e-324, Duty: 0.5}, Sine{Amp: 1, Freq: 1e300}, 1e300, -1e300, 200)
	// Level blocks: a -0 low run beside -0 parts, whose sum from 0 is +0,
	// and an +Inf high run beside a -Inf part, whose sum is NaN.
	add(Square{Low: math.Copysign(0, -1), High: math.Inf(1), Period: 2, Duty: 0.5}, Sine{Phase: math.Copysign(0, -1)}, 1.25, 1.0/256, 127)
	add(Square{Low: math.Copysign(0, -1), High: math.Inf(1), Period: 2, Duty: 0.5}, Sine{Phase: math.Inf(-1)}, 0.25, 1.0/256, 127)
	f.Fuzz(func(t *testing.T, lo, hi, period, duty, phase, off, amp, freq, sphase, t0bits, dtbits uint64, m uint8) {
		fb := math.Float64frombits
		q := Square{Low: fb(lo), High: fb(hi), Period: fb(period), Duty: fb(duty), Phase: fb(phase)}
		s := Sine{Offset: fb(off), Amp: fb(amp), Freq: fb(freq), Phase: fb(sphase)}
		t0, dt := fb(t0bits), fb(dtbits)
		ts := make([]float64, int(m)+1)
		for i := range ts {
			ts[i] = t0 + float64(i)*dt
		}
		pw := make([]float64, len(ts))
		levels := []Signal{Const(fb(lo)), q, Sum{Const(fb(lo)), q, Sum{q, Const(fb(sphase))}}}
		sines := []Signal{s, Sum{s, Const(fb(lo)), q, Sum{q, s, Const(fb(sphase))}}, Sum{q, Sum{Const(fb(off)), s}}}
		for _, sig := range append(levels, sines...) {
			powerSpan(sig, ts, pw)
			for i, at := range ts {
				if want := sig.PowerAt(at); !sameBits(pw[i], want) {
					t.Fatalf("%#v at %v: powerSpan %v (%#x), PowerAt %v (%#x)", sig, at, pw[i], bits(pw[i]), want, bits(want))
				}
			}
		}
		for _, sig := range levels {
			checkBlockLevel(t, sig, ts)
		}
		for _, sig := range sines {
			if v, ok := blockLevel(sig, ts[0], ts[len(ts)-1]); ok {
				t.Fatalf("%#v: blockLevel %v over a signal with a Sine in it", sig, v)
			}
		}
	})
}

// FuzzSquareSpan holds powerSpan to PowerAt on bits where squareSpan's
// run fill can apply, which FuzzPowerSpan's raw grids mostly miss: the
// spacing is |dt|, so the grid never decreases, and the first instant is
// Phase + |off|, so no offset is negative. Up to a full block of instants.
// On the same grids it holds blockLevel to PowerAt wherever it reports a
// level, for the square alone and in a Sum after a Const of off's bits.
func FuzzSquareSpan(f *testing.F) {
	bits := math.Float64bits
	add := func(q Square, off, dt float64, m uint8) {
		f.Add(bits(q.Low), bits(q.High), bits(q.Period), bits(q.Duty), bits(q.Phase), bits(off), bits(dt), m)
	}
	add(Square{High: 933, Period: 2.37, Duty: 0.374}, 6000.3, 1.0/800, 255)
	add(Square{Low: 7, High: 901, Period: 2, Duty: 0.4}, 1.8, 1.0/800, 255)
	add(Square{High: 990, Period: 0.04, Duty: 0.374, Phase: 0.0013}, 0.25, 1.0/1000, 255)
	add(Square{High: 800, Period: 1.3, Duty: 0.45, Phase: -4.1e15}, 3, 1.0/1000, 255)
	add(Square{High: 1100, Period: 1, Duty: 0.4, Phase: 13 - 1<<52}, 12.9, 1.0/1000, 255)
	add(Square{High: 600, Period: 0.7e-3, Duty: 0.3}, 0, 1.0/1000, 255)
	add(Square{High: 1, Period: 3, Duty: 0.5, Phase: 1e300}, 0, 1e290, 200)
	add(Square{Low: math.NaN(), High: math.Inf(1), Period: math.Inf(1), Duty: 2}, math.Inf(1), math.NaN(), 9)
	// A block of 256 instants 1/256 s apart, all exact: an edge on its
	// first instant (a low-to-high one at x = Period, a high-to-low one at
	// x = Duty·Period), and one on its last (x = 255/256 = Duty·Period).
	add(Square{Low: 5, High: 900, Period: 2, Duty: 0.5, Phase: 0.5}, 2, 1.0/256, 255)
	add(Square{Low: 5, High: 900, Period: 2, Duty: 0.5, Phase: 0.5}, 1, 1.0/256, 255)
	add(Square{Low: 5, High: 900, Period: 255.0 / 128, Duty: 0.5}, 0, 1.0/256, 255)
	f.Fuzz(func(t *testing.T, lo, hi, period, duty, phase, off, dt uint64, m uint8) {
		fb := math.Float64frombits
		q := Square{Low: fb(lo), High: fb(hi), Period: fb(period), Duty: fb(duty), Phase: fb(phase)}
		t0, step := q.Phase+math.Abs(fb(off)), math.Abs(fb(dt))
		ts := make([]float64, int(m)+1)
		for i := range ts {
			ts[i] = t0 + float64(i)*step
		}
		pw := make([]float64, len(ts))
		powerSpan(q, ts, pw)
		for i, at := range ts {
			if want := q.PowerAt(at); !sameBits(pw[i], want) {
				t.Fatalf("%#v at %v (instant %d): powerSpan %v (%#x), PowerAt %v (%#x)", q, at, i, pw[i], bits(pw[i]), want, bits(want))
			}
		}
		checkBlockLevel(t, q, ts)
		checkBlockLevel(t, Sum{Const(fb(off)), q}, ts)
	})
}

// BenchmarkSampleDecimated times one window of each shape the benchmark's
// workloads synthesise, per raw conversion: control-loop's Const at
// 64 S/s raw over a 15 s tick and fabric-1k's Const+Square at 800 S/s raw
// over a 2 s window, both decimated 16:1. Two more squares bracket
// squareSpan's guard: a period of 3 conversion spacings, which it leaves
// to PowerAt per instant, and one of 40, whose blocks hold a dozen edges.
func BenchmarkSampleDecimated(b *testing.B) {
	for _, c := range []struct {
		name   string
		sig    Signal
		rate   float64
		window float64
	}{
		{"Const/64Sps", Const(900), 64, 15},
		{"ConstSquare/800Sps", Sum{Const(311), Square{High: 933, Period: 2.37, Duty: 0.374}}, 800, 2},
		{"ConstSquare3dt/800Sps", Sum{Const(311), Square{High: 933, Period: 3.0 / 800, Duty: 0.374}}, 800, 2},
		{"ConstSquare40dt/800Sps", Sum{Const(311), Square{High: 933, Period: 40.0 / 800, Duty: 0.374}}, 800, 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			a, err := NewADC(c.rate, 12, 20000, 0.5, 1)
			if err != nil {
				b.Fatal(err)
			}
			conversions := 0
			t0 := 0.0
			for b.Loop() {
				out, err := a.SampleDecimated(c.sig, t0, t0+c.window, 16)
				if err != nil || len(out) == 0 {
					b.Fatal(out, err)
				}
				conversions += len(out) * 16
				t0 += c.window
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(conversions), "ns/conversion")
		})
	}
}
