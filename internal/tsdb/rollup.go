package tsdb

import "math"

// A rollup is one downsampled resolution of a series: a dense run of
// fixed-width buckets, each carrying the exact rectangle-rule energy, the
// covered signal seconds and the max power seen. Rollups are maintained
// on ingest — a sample's rectangle is added the moment its right neighbour
// (and therefore its width) is known — so they survive raw-chunk
// retention and serve coarse queries without touching compressed chunks.
//
// A rollup keeps the store's clock: its width is a whole number of ticks,
// bucket i holds the ticks [i·w, (i+1)·w), and its edges in seconds are
// those ticks' seconds. Which bucket a tick falls in is integer arithmetic;
// only the energy, cover and query pro-rating are float seconds.
type rollup struct {
	width   float64  // bucket width, seconds: toSec(w)
	w       int64    // bucket width, ticks (>= 1)
	start   int64    // bucket index of buckets[0]
	buckets []bucket // the dense run
	spare   []bucket // zeroed headroom ending where buckets begins, left by front growth
}

type bucket struct {
	energyJ float64
	cover   float64 // seconds of signal covered inside the bucket
	maxW    float64
}

// newRollup returns an empty rollup of a width that is a whole number of
// ticks (Options.withDefaults rounds every width to one).
func newRollup(width float64) *rollup { return &rollup{width: width, w: toTick(width)} }

// bucketOf is the index of the bucket holding tick k: ⌊k / w⌋.
func (r *rollup) bucketOf(k int64) int64 {
	i := k / r.w
	if k%r.w < 0 {
		i--
	}
	return i
}

// edge is the lower edge of bucket i in seconds.
func (r *rollup) edge(i int64) float64 { return toSec(i * r.w) }

// bucketAt grows the dense run as needed and returns the bucket for index
// i. Growth is geometric both ways, amortised O(1) per new bucket: a front
// reallocation leaves headroom as long as the run and keeps its tail slack,
// so growth alternating between the two ends is not quadratic either.
func (r *rollup) bucketAt(i int64) *bucket {
	if len(r.buckets) == 0 {
		r.start = i
	}
	if k := int(r.start - i); k > 0 {
		n := k + len(r.buckets)
		if k > len(r.spare) {
			r.spare = make([]bucket, n+k, 2*n+cap(r.buckets)-len(r.buckets))
			copy(r.spare[n+k:2*n], r.buckets)
		}
		h := len(r.spare) - k
		r.spare, r.buckets, r.start = r.spare[:h], r.spare[h:h+n], i
	}
	if need := int(i-r.start) + 1; need > len(r.buckets) {
		if need > cap(r.buckets) {
			r.spare = nil // append moves the run to a fresh array; the headroom stays behind
		}
		r.buckets = append(r.buckets, make([]bucket, need-len(r.buckets))...)
	}
	return &r.buckets[i-r.start]
}

// maxRectBuckets bounds how many dense buckets one rectangle may touch.
// A sample gap spanning more buckets than this is a clock glitch or a
// corrupt batch, not a signal: materialising it would allocate without
// bound while holding the shard lock, so the rectangle is skipped (the
// raw chunks still hold the samples; only rollup-resolution answers over
// the pathological gap lose it).
const maxRectBuckets = 100_000

// addRect spreads one power rectangle over the ticks [k0, k1) at p watts
// across buckets ⌊k0/w⌋ … ⌊(k1−1)/w⌋, each of which it overlaps by at
// least one tick. cover=false applies an energy-only correction (used when
// an out-of-order insert re-attributes an already-covered span to a new
// power level), leaving covered seconds untouched.
func (r *rollup) addRect(k0, k1 int64, p float64, cover bool) {
	if k1 <= k0 {
		return
	}
	first, last := r.bucketOf(k0), r.bucketOf(k1-1)
	if uint64(last-first) >= maxRectBuckets {
		return
	}
	if n := int64(len(r.buckets)); n > 0 {
		// Refuse to grow the dense run by more than maxRectBuckets in one
		// step: a rectangle landing that far from the existing run is a
		// clock glitch, and materialising the gap would allocate without
		// bound.
		if uint64(max(last+1, r.start+n)-min(first, r.start))-uint64(n) > maxRectBuckets {
			return
		}
	}
	lo := toSec(k0)
	for i := first; i <= last; i++ {
		hi := toSec(min(k1, (i+1)*r.w))
		b := r.bucketAt(i)
		b.energyJ += p * (hi - lo)
		if cover {
			b.cover += hi - lo
			if p > b.maxW {
				b.maxW = p
			}
		} else if p > 0 && b.maxW < p {
			// A correction can only raise the max (the old level stays a
			// lower bound on what was observed there).
			b.maxW = p
		}
		lo = hi
	}
}

// addRun adds the covering rectangles of an in-order run: [a, ks[0]) at
// p, then [ks[j], ks[j+1]) at ws[j], with ks rising strictly and ts[j] =
// toSec(ks[j]). It is addRect on each in turn, bit for bit. The open
// bucket's sums live in locals while each rectangle ends at or before its
// upper edge tick (it starts inside, where the one before it ended); they
// go back to the run when one does not, and that rectangle goes through
// addRect unless it lies inside one bucket the run already holds.
//
// The run first grows to the bucket of its last rectangle, by one
// bucketAt, when addRect would grow it that far in any case: the
// rectangle lies inside that one bucket, the run exists and the growth is
// well inside the glitch guard. Every rectangle before it ends at or
// before its start, so the run ends up exactly as long as one addRect per
// rectangle leaves it, and in between a rectangle inside a new bucket
// opens that bucket too.
func (r *rollup) addRun(a int64, p float64, ks []int64, ts, ws []float64) {
	lo, hi := a, ks[len(ks)-1]
	if n := len(ks); n > 1 {
		lo = ks[n-2]
	}
	if i, end := r.bucketOf(lo), r.start+int64(len(r.buckets)); len(r.buckets) > 0 &&
		i >= end && i-end < maxRectBuckets/2 && hi <= (i+1)*r.w {
		r.bucketAt(i)
	}
	var (
		b          *bucket // the open bucket
		edge       int64   // its upper edge tick
		e, c, maxW float64 // its sums
	)
	as := toSec(a)
	ts, ws = ts[:len(ks)], ws[:len(ks)] // one bounds check per run, not per sample
	for j, k := range ks {
		if b != nil && k > edge {
			b.energyJ, b.cover, b.maxW = e, c, maxW
			b = nil
		}
		if b == nil {
			if i := r.bucketOf(a); uint64(i-r.start) < uint64(len(r.buckets)) && k <= (i+1)*r.w {
				b, edge = &r.buckets[i-r.start], (i+1)*r.w
				e, c, maxW = b.energyJ, b.cover, b.maxW
			}
		}
		t := ts[j]
		if b != nil {
			e += p * (t - as)
			c += t - as
			if p > maxW {
				maxW = p
			}
		} else {
			r.addRect(a, k, p, true)
		}
		a, as, p = k, t, ws[j]
	}
	if b != nil {
		b.energyJ, b.cover, b.maxW = e, c, maxW
	}
}

// overlap returns the first and last bucket index of the run that [t0, t1)
// touches (last < first when none): a read costs O(buckets of the run in
// the window), never O(window), whatever bounds a caller sends. The bounds
// are clamped to the run in seconds before they go to the tick grid, so
// ±1e300 and ±Inf cost and answer what the run's own edges do; a bound
// inside the run is read on the grid, as a sample's time is.
func (r *rollup) overlap(t0, t1 float64) (first, last int64) {
	end := r.start + int64(len(r.buckets))
	k0, k1 := r.start*r.w, end*r.w
	if !(t0 < t1 && t0 < toSec(k1) && t1 > toSec(k0)) {
		return 0, -1
	}
	if t0 > toSec(k0) {
		k0 = toTick(t0)
	}
	if t1 < toSec(k1) {
		k1 = toTick(t1)
	}
	if k1 <= k0 {
		return 0, -1
	}
	return r.bucketOf(k0), r.bucketOf(k1 - 1)
}

// energy integrates the rollup over [t0, t1]. Boundary buckets contribute
// pro-rata by overlap fraction, so the result deviates from the raw
// integral by at most width × the peak power per boundary.
func (r *rollup) energy(t0, t1 float64) float64 {
	e := 0.0
	first, last := r.overlap(t0, t1)
	lo := r.edge(first)
	for i := first; i <= last; i++ {
		hi := r.edge(i + 1)
		if b := r.buckets[i-r.start]; b.energyJ != 0 {
			e += b.energyJ * (math.Min(t1, hi) - math.Max(t0, lo)) / r.width
		}
		lo = hi
	}
	return e
}

// points appends one Point per non-empty bucket overlapping [t0, t1] to out.
func (r *rollup) points(t0, t1 float64, out []Point) []Point {
	first, last := r.overlap(t0, t1)
	for i := first; i <= last; i++ {
		b := r.buckets[i-r.start]
		if b.cover <= 0 {
			continue
		}
		out = append(out, Point{
			T0: r.edge(i), T1: r.edge(i + 1),
			MeanW: b.energyJ / b.cover, MaxW: b.maxW, EnergyJ: b.energyJ,
		})
	}
	return out
}

// bytes estimates the rollup's memory footprint.
func (r *rollup) bytes() int64 { return int64(len(r.buckets)) * 24 }
