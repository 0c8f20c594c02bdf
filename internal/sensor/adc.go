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
	tables    [levelTables]levelTable // level.go's cache, filled in turn
	nextTable int
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
	lsb := a.LSB()
	return a.code(p+a.rng.norm()*a.NoiseLSB*lsb, lsb) * lsb
}

// code returns the converter code of the noisy power p: p clamped to
// [0, FullScale], in lsb steps, rounded half away from zero.
func (a *ADC) code(p, lsb float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > a.FullScale {
		p = a.FullScale
	}
	return math.Round(p / lsb)
}

// convert draws the noise of the conversions of pw in order and
// quantises pw in place: per conversion, one standard normal it
// discards, then the conversion noise z, and the power becomes
// code(p + z·NoiseLSB·lsb)·lsb. The discarded draw sits where the
// aperture jitter was drawn before the jitter was removed, so the
// per-conversion path still yields the noise it always did.
func (a *ADC) convert(pw []float64, lsb float64) {
	g := &a.rng
	for i, p := range pw {
		// norm twice, spelled out so that both fast paths inline.
		if _, ok := g.normFast(); !ok {
			g.normSlow()
		}
		z, ok := g.normFast()
		if !ok {
			z = g.normSlow()
		}
		pw[i] = a.code(p+z*a.NoiseLSB*lsb, lsb) * lsb
	}
}

// convertLevel converts k conversions of level in order, as convert
// would, and returns the sum of their quantised powers, added in order.
func (a *ADC) convertLevel(level float64, k int, lsb float64) float64 {
	var pw [block]float64
	sum := 0.0
	for k > 0 {
		c := pw[:min(k, block)]
		for i := range c {
			c[i] = level
		}
		a.convert(c, lsb)
		for _, p := range c {
			sum += p
		}
		k -= len(c)
	}
	return sum
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
// stack arrays of 2 KiB each.
const block = 256

// SampleDecimated samples s over [t0, t1) at the ADC rate and averages
// each group of n conversions into one sample, without building the raw
// train: the package's one synthesis loop. It works in blocks of up to
// 256 conversions; each full group yields one sample at the mean nominal
// instant (summed in index order), by one of two paths:
//
//   - A level group, one of n ≥ 2 conversions whose n powers are
//     bit-equal and not NaN, is one draw from the exact distribution of
//     its code sum S (level.go): one uniform and an indexed search of a
//     CDF table, from a table per level and n that the ADC caches. The
//     search returns the binary search's index bit for bit. Its power is
//     S·lsb/n.
//   - Every other group (one that straddles an edge or holds a NaN, one
//     whose table would span more than maxTableSpan codes, and every
//     group at n = 1) is converted one conversion at a time (convert)
//     and its quantised powers averaged.
//
// Where level groups may be drawn, the signal's structure is asked
// first whether it holds one level over the whole block (blockLevel). A
// block it proves level is not evaluated per instant: every group in it
// is a level group at that level. Any other block's powers are filled
// at the nominal instants first (powerSpan).
//
// The two paths agree in distribution, not in bits: a level group
// draws one uniform where the per-conversion path draws 2n normals. At
// NoiseLSB 0 a level table is one point, at a noiseless conversion's
// code, so the sample equals the per-conversion mean wherever the
// codes' sum in watts is exact. A trailing partial group is neither
// evaluated nor drawn. A window CheckWindow refuses, or one of more
// than MaxRawSamples conversions, is an error returned before any draw.
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
	total -= total % n
	out := make([]Sample, 0, total/n)
	dt, lsb, fn := 1/a.Rate, a.LSB(), float64(n)
	tables := n > 1 && a.tableFits(n)
	// The group in progress: k conversions so far. While level holds,
	// all k had power lv and none has been converted.
	sumP, sumT, k, lv, level := 0.0, 0.0, 0, 0.0, tables
	// The last level group's table. n and the ADC's fields are fixed for
	// the call, so the level's bits alone tell whether it still serves.
	var tab *levelTable
	var ts, pw [block]float64
	for base := 0; base < total; base += block {
		m := min(block, total-base)
		for i := range m {
			ts[i] = t0 + float64(base+i)*dt
		}
		// flat: every power in the block is bl, and bl is no NaN.
		bl, flat := 0.0, false
		if tables {
			bl, flat = blockLevel(s, ts[0], ts[m-1])
			flat = flat && bl == bl
		}
		if !flat {
			powerSpan(s, ts[:m], pw[:m])
		}
		if n == 1 {
			a.convert(pw[:m], lsb)
			for i, nominal := range ts[:m] {
				// Stored as converted: a sum would turn a -0 into +0.
				out = append(out, Sample{T: nominal, P: pw[i]})
			}
			continue
		}
		for i := 0; i < m; {
			j := min(m, i+n-k)
			span := pw[i:j]
			for _, nominal := range ts[i:j] {
				sumT += nominal
			}
			if level {
				if k == 0 {
					lv = bl
					if !flat {
						lv = span[0]
					}
				}
				if flat {
					level = math.Float64bits(lv) == math.Float64bits(bl)
				} else {
					level = lv == lv && allBits(span, lv)
				}
				if !level {
					sumP = a.convertLevel(lv, k, lsb)
				}
			}
			if !level {
				if flat {
					for x := range span {
						span[x] = bl
					}
				}
				a.convert(span, lsb)
				for _, p := range span {
					sumP += p
				}
			}
			if k += j - i; k == n {
				if level {
					if tab == nil || tab.key.level != math.Float64bits(lv) {
						tab = a.levelTable(lv, n)
					}
					sumP = float64(tab.draw(&a.rng)) * lsb
				}
				out = append(out, Sample{T: sumT / fn, P: sumP / fn})
				sumP, sumT, k, level = 0, 0, 0, tables
			}
			i = j
		}
	}
	return out, nil
}

// blockLevel reports the one level s holds at every instant from first
// to last, where the signal's structure proves it holds one: a Const
// always; a Square where both ends fall in one cell, the (k, high) rule
// squareSpan relies on; a Sum where every part does, its level summed
// from 0 in part order, the additions of Sum.PowerAt. Any other signal
// is not asked. The instants between first and last never decrease.
func blockLevel(s Signal, first, last float64) (float64, bool) {
	switch s := s.(type) {
	case Const:
		return float64(s), true
	case Square:
		if first <= last {
			lo, okLo := s.cell(first)
			hi, okHi := s.cell(last)
			if okLo && okHi && lo == hi {
				return s.level(lo), true
			}
		}
	case Sum:
		v := 0.0
		for _, c := range s {
			p, ok := blockLevel(c, first, last)
			if !ok {
				return 0, false
			}
			v += p
		}
		return v, true
	}
	return 0, false
}

// allBits reports whether every power in pw has the bits of v.
func allBits(pw []float64, v float64) bool {
	b := math.Float64bits(v)
	for _, p := range pw {
		if math.Float64bits(p) != b {
			return false
		}
	}
	return true
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
