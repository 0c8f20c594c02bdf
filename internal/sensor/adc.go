package sensor

import (
	"errors"
	"fmt"
	"math"
)

// Sample is one timestamped power reading.
type Sample struct {
	T float64 // seconds (in the sampler's own clock)
	P float64 // watts
}

// ADC models the BeagleBone Black's 12-bit SAR converter (TI Sitara
// AM335x): fixed sampling rate, full-scale range, quantisation and additive
// Gaussian noise, converting at the nominal instants. The paper runs it at
// 800 kS/s (hardware-averaged from the 1.6 MS/s maximum across channels).
type ADC struct {
	Rate      float64 // samples per second
	Bits      int     // resolution
	FullScale float64 // watts mapped to the top code
	NoiseLSB  float64 // Gaussian noise sigma, in LSBs
	rng       noise
}

// NewADC constructs an ADC. seed makes the noise deterministic.
func NewADC(rate float64, bits int, fullScale, noiseLSB float64, seed int64) (*ADC, error) {
	switch {
	case rate <= 0:
		return nil, errors.New("sensor: ADC rate must be positive")
	case bits < 1 || bits > 24:
		return nil, fmt.Errorf("sensor: ADC bits %d out of range [1,24]", bits)
	case fullScale <= 0:
		return nil, errors.New("sensor: ADC full scale must be positive")
	case noiseLSB < 0:
		return nil, errors.New("sensor: negative noise")
	}
	a := &ADC{Rate: rate, Bits: bits, FullScale: fullScale, NoiseLSB: noiseLSB}
	a.rng.seed(seed)
	return a, nil
}

// BBBADC returns the paper's converter: 12-bit SAR, 800 kS/s effective,
// sized for a 3 kW node backplane, with 0.5 LSB RMS noise.
func BBBADC(seed int64) *ADC {
	a, err := NewADC(800e3, 12, 3000, 0.5, seed)
	if err != nil {
		panic("sensor: BBBADC defaults invalid: " + err.Error())
	}
	return a
}

// LSB returns the quantisation step in watts.
func (a *ADC) LSB() float64 { return a.FullScale / float64(uint64(1)<<a.Bits) }

// Convert quantises one instantaneous power value (without sampling-time
// effects): clamp to [0, FullScale], add noise, round to the LSB grid.
func (a *ADC) Convert(p float64) float64 {
	pw, z := [1]float64{p}, [1]float64{a.rng.norm()}
	a.quantise(pw[:], z[:], a.LSB())
	return pw[0]
}

// quantise converts the powers pw in place: add the standard normal draw
// z[i] scaled to NoiseLSB, clamp to [0, FullScale], round to the lsb grid.
func (a *ADC) quantise(pw, z []float64, lsb float64) {
	z = z[:len(pw)]
	for i, p := range pw {
		p += z[i] * a.NoiseLSB * lsb
		if p < 0 {
			p = 0
		}
		if p > a.FullScale {
			p = a.FullScale
		}
		code := math.Round(p / lsb)
		pw[i] = code * lsb
	}
}

// SampleSignal samples s over [t0, t1) at the ADC rate, quantising each
// reading at its nominal instant.
func (a *ADC) SampleSignal(s Signal, t0, t1 float64) ([]Sample, error) {
	return a.SampleDecimated(s, t0, t1, 1)
}

// MaxRawSamples is the most conversions one SampleDecimated call performs
// (21 s at the paper's 800 kS/s; 256 MiB of samples at n = 1). A longer
// window is refused, not truncated: split it.
const MaxRawSamples = 1 << 24

// block is the most conversions the synthesis kernel holds at once, in
// three stack arrays (instants, powers, noise draws) of 2 KiB each.
const block = 256

// SampleDecimated is SampleSignal followed by an n:1 Decimator, bit for
// bit, without building the raw train: the package's one synthesis loop.
// It works in blocks of up to 256 conversions, in three phases:
//
//  1. Draw: per conversion in order, one standard normal it discards, then
//     the conversion noise. The discarded draw sits where the aperture
//     jitter was drawn before the jitter was removed, so every seed still
//     yields the noise it always did. No draw depends on the signal.
//  2. Evaluate: powerSpan fills the block's powers at the nominal instants.
//  3. Quantise and decimate: each full group of n conversions yields one
//     sample at the mean nominal instant with the mean power, summed in
//     index order.
//
// A trailing partial group is drawn, converted and dropped, so the noise
// stream ends where the two-pass form left it. A window CheckWindow
// refuses, or one of more than MaxRawSamples conversions, is an error
// returned before any draw.
func (a *ADC) SampleDecimated(s Signal, t0, t1 float64, n int) ([]Sample, error) {
	if n < 1 {
		return nil, errDecimation
	}
	if err := CheckWindow(t0, t1); err != nil {
		return nil, err
	}
	raw := math.Floor((t1 - t0) * a.Rate)
	if !(raw <= MaxRawSamples) { // a span that overflows to +Inf fails too
		return nil, fmt.Errorf("sensor: window [%g, %g) at %g S/s exceeds %d conversions", t0, t1, a.Rate, MaxRawSamples)
	}
	total := int(raw)
	out := make([]Sample, 0, total/n)
	g := &a.rng
	dt, lsb, fn := 1/a.Rate, a.LSB(), float64(n)
	sumP, sumT, k := 0.0, 0.0, 0
	var ts, pw, z [block]float64
	for base := 0; base < total; base += block {
		m := min(block, total-base)
		for i := range m {
			// norm twice, spelled out so that both fast paths inline:
			// the jitter's slot, discarded, then the noise.
			if _, ok := g.normFast(); !ok {
				g.normSlow()
			}
			x, ok := g.normFast()
			if !ok {
				x = g.normSlow()
			}
			z[i] = x
			ts[i] = t0 + float64(base+i)*dt
		}
		powerSpan(s, ts[:m], pw[:m])
		a.quantise(pw[:m], z[:m], lsb)
		for i, nominal := range ts[:m] {
			p := pw[i]
			if n == 1 {
				// Stored as converted: 0 + p below would turn a -0 into +0.
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
	}
	return out, nil
}

// powerSpan sets pw[i] to s.PowerAt(ts[i]) for every i, bit for bit, with
// one dynamic dispatch per call instead of one per instant for the
// signals the plant synthesises. A Const fills pw, a Square fills its
// level runs (squareSpan), a Sum zeroes pw and adds its components in
// order, the operations of Sum.PowerAt. ts never decreases; len(ts) and
// len(pw) are equal and at most block.
func powerSpan(s Signal, ts, pw []float64) {
	switch s := s.(type) {
	case Const:
		for i := range pw {
			pw[i] = float64(s)
		}
	case Square:
		squareSpan(s, ts, pw)
	case Sum:
		clear(pw)
		var buf [block]float64
		part := buf[:len(ts)]
		for _, c := range s {
			powerSpan(c, ts, part)
			for i, p := range part {
				pw[i] += p
			}
		}
	default:
		for i, t := range ts {
			pw[i] = s.PowerAt(t)
		}
	}
}

// minRun is the fewest instants per period for which squareSpan fills
// runs: below it a block holds so many edges that splitting down to them
// costs more than evaluating every instant.
const minRun = 16

// squareSpan is powerSpan's Square arm. Over ascending instants the offset
// x = t - Phase never decreases, and neither does its period index
// k = floor(x/Period). fmod's remainder x - k·Period is exact, so within
// one period the level is High up to Duty·Period and Low after it: two
// instants with the same (k, level) bound a run of that level. squareSpan
// evaluates a block's two ends and, where they differ, splits the block
// until they agree. It calls PowerAt per instant instead when q.cell
// refuses an end, when the first instant is after the last, and when the
// block holds fewer than minRun instants per period it spans.
func squareSpan(q Square, ts, pw []float64) {
	if last := len(ts) - 1; last >= 0 && ts[0] <= ts[last] {
		lo, okLo := q.cell(ts[0])
		hi, okHi := q.cell(ts[last])
		if okLo && okHi && (hi.k-lo.k)*minRun < float64(len(ts)) {
			q.fill(ts, pw, lo, hi)
			return
		}
	}
	for i, t := range ts {
		pw[i] = q.PowerAt(t)
	}
}

// squareCell is an instant's period index and level.
type squareCell struct {
	k    float64
	high bool
}

// cell returns the cell of instant t by the steps PowerAt and fmod take,
// and false where they would take any other: t - Phase negative or not
// finite, Period not > 0, or a quotient of 2^52 or more.
func (q Square) cell(t float64) (squareCell, bool) {
	x, y := t-q.Phase, q.Period
	if !(x >= 0 && x <= math.MaxFloat64 && y > 0) {
		return squareCell{}, false
	}
	c, r := squareCell{}, x
	if x >= y {
		c.k = math.Trunc(x / y)
		if c.k >= 1<<52 {
			return squareCell{}, false
		}
		if r = math.FMA(-c.k, y, x); r < 0 {
			r += y
			c.k--
		}
	}
	c.high = r < q.Duty*q.Period
	return c, true
}

// fill sets pw to the levels at ts, given the cells lo of ts[0] and hi of
// its last instant.
func (q Square) fill(ts, pw []float64, lo, hi squareCell) {
	for lo != hi && len(ts) > 2 {
		mid := len(ts) / 2
		c, _ := q.cell(ts[mid])
		q.fill(ts[:mid+1], pw[:mid+1], lo, c)
		ts, pw, lo = ts[mid:], pw[mid:], c
	}
	if lo != hi { // two instants, one either side of an edge
		pw[0], pw[1] = q.level(lo), q.level(hi)
		return
	}
	v := q.level(lo)
	for i := range pw {
		pw[i] = v
	}
}

// level returns the power of cell c.
func (q Square) level(c squareCell) float64 {
	if c.high {
		return q.High
	}
	return q.Low
}

var errDecimation = errors.New("sensor: decimation factor must be >= 1")

// Decimator performs N:1 boxcar averaging, the hardware decimation the
// paper uses to turn 800 kS/s raw conversions into 50 kS/s power samples
// (N = 16). Averaging rather than dropping preserves energy content and
// suppresses noise by sqrt(N).
type Decimator struct {
	N int
}

// NewDecimator creates an N:1 decimator.
func NewDecimator(n int) (*Decimator, error) {
	if n < 1 {
		return nil, errDecimation
	}
	return &Decimator{N: n}, nil
}

// Decimate averages consecutive groups of N samples. The output timestamp
// is the centre of each group. A trailing partial group is dropped (as the
// hardware does).
func (d *Decimator) Decimate(in []Sample) []Sample {
	if d.N == 1 {
		out := make([]Sample, len(in))
		copy(out, in)
		return out
	}
	groups := len(in) / d.N
	out := make([]Sample, 0, groups)
	for g := 0; g < groups; g++ {
		sumP, sumT := 0.0, 0.0
		for i := g * d.N; i < (g+1)*d.N; i++ {
			sumP += in[i].P
			sumT += in[i].T
		}
		out = append(out, Sample{T: sumT / float64(d.N), P: sumP / float64(d.N)})
	}
	return out
}

// EnergyFromSamples estimates energy over [t0, t1] from a sample train by
// rectangle integration at the sampling interval, the estimator a telemetry
// consumer would apply. Samples are assumed equally spaced; the interval is
// inferred from the first two samples. Returns an error with fewer than two
// samples.
func EnergyFromSamples(samples []Sample, t0, t1 float64) (float64, error) {
	if len(samples) < 2 {
		return 0, errors.New("sensor: need at least two samples")
	}
	if err := CheckWindow(t0, t1); err != nil {
		return 0, err
	}
	dt := samples[1].T - samples[0].T
	if !(dt > 0) {
		return 0, errors.New("sensor: non-increasing sample timestamps")
	}
	e := 0.0
	for _, s := range samples {
		// Each sample covers [s.T, s.T+dt) clipped to the window.
		lo := math.Max(s.T, t0)
		hi := math.Min(s.T+dt, t1)
		if hi > lo {
			e += s.P * (hi - lo)
		}
	}
	return e, nil
}

// MeanPower returns the average power of a sample train.
func MeanPower(samples []Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, errors.New("sensor: no samples")
	}
	s := 0.0
	for _, x := range samples {
		s += x.P
	}
	return s / float64(len(samples)), nil
}
