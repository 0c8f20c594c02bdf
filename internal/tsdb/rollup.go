package tsdb

import "math"

// A rollup is one downsampled resolution of a series: a dense run of
// fixed-width buckets, each carrying the exact rectangle-rule energy, the
// covered signal seconds and the max power seen. Rollups are maintained
// on ingest — a sample's rectangle is added the moment its right neighbour
// (and therefore its width) is known — so they survive raw-chunk
// retention and serve coarse queries without touching compressed chunks.
type rollup struct {
	width   float64  // bucket width, seconds
	start   int64    // bucket index of buckets[0]
	buckets []bucket // the dense run
	spare   []bucket // zeroed headroom ending where buckets begins, left by front growth
}

type bucket struct {
	energyJ float64
	cover   float64 // seconds of signal covered inside the bucket
	maxW    float64
}

// idx maps a time to its bucket index.
func (r *rollup) idx(t float64) int64 { return int64(math.Floor(t / r.width)) }

// lastBefore returns the index of the last bucket that starts before t1,
// as a float so that callers can clamp infinities before converting. A
// bucket whose start float64(i)*width is ≥ t1 lies outside [t0, t1).
func (r *rollup) lastBefore(t1 float64) float64 {
	i := math.Floor(t1 / r.width)
	if i*r.width >= t1 {
		i--
	}
	return i
}

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

// addRect spreads one power rectangle [t0, t1) at p watts across the
// bucket run. cover=false applies an energy-only correction (used when an
// out-of-order insert re-attributes an already-covered span to a new
// power level), leaving covered seconds untouched.
func (r *rollup) addRect(t0, t1, p float64, cover bool) {
	if t1 <= t0 {
		return
	}
	// The common case on ingest, a covering rectangle inside one bucket
	// the run already holds: the loop below would clip nothing and run
	// once, so these are its three operations in its order. idx stays a
	// division so that widths a float cannot hold exactly agree with it.
	if i := r.idx(t0); cover && uint64(i-r.start) < uint64(len(r.buckets)) && r.inside(i, t0, t1) {
		b := &r.buckets[i-r.start]
		b.energyJ += p * (t1 - t0)
		b.cover += t1 - t0
		if p > b.maxW {
			b.maxW = p
		}
		return
	}
	if (t1-t0)/r.width > maxRectBuckets {
		return
	}
	if n := len(r.buckets); n > 0 {
		// Refuse to grow the dense run by more than maxRectBuckets in one
		// step: a rectangle landing that far from the existing run is a
		// clock glitch, and materialising the gap would allocate without
		// bound.
		lo, hi := r.start, r.start+int64(n)
		if i := r.idx(t0); i < lo {
			lo = i
		}
		if i := int64(r.lastBefore(t1)) + 1; i > hi {
			hi = i
		}
		if hi-lo-int64(n) > maxRectBuckets {
			return
		}
	}
	for i := r.idx(t0); ; i++ {
		lo := math.Max(t0, float64(i)*r.width)
		hi := math.Min(t1, float64(i+1)*r.width)
		if hi <= lo {
			break
		}
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
		if hi >= t1 {
			break
		}
	}
}

// addRun adds the covering rectangles of an in-order run: [a, ts[0]) at
// p, then [ts[k], ts[k+1]) at ws[k]. It is addRect on each in turn, bit
// for bit. A rectangle that addRect's fast path would take is added to the
// open bucket, whose sums live in locals and go back to the run when a
// rectangle lands elsewhere, so every bucket sees the same float additions
// in the same order. Any other rectangle goes through addRect itself.
//
// The run first grows to the bucket of its last rectangle, by one
// bucketAt, when addRect would grow it that far in any case: the
// rectangle lies inside that one bucket, the run exists and the growth is
// well inside the glitch guard. Every rectangle before it ends at or
// before its start, so the run ends up exactly as long as one addRect per
// rectangle leaves it, and in between a rectangle inside a new bucket
// stays on the fast path.
func (r *rollup) addRun(a, p float64, ts, ws []float64) {
	lo, hi := a, ts[len(ts)-1]
	if n := len(ts); n > 1 {
		lo = ts[n-2]
	}
	if i, end := r.idx(lo), r.start+int64(len(r.buckets)); len(r.buckets) > 0 && hi > lo &&
		i >= end && i-end < maxRectBuckets/2 && r.inside(i, lo, hi) {
		r.bucketAt(i)
	}
	var (
		b          *bucket // the open bucket, at index cur
		cur        int64
		e, c, maxW float64 // its sums
		edge, sure float64 // its upper edge, and sureIdx's bound
	)
	for k, t := range ts {
		if t > a {
			if b == nil || a > sure || t > edge {
				// Locate the rectangle as addRect's fast path does.
				i := r.idx(a)
				if b != nil && (i != cur || t > edge) {
					b.energyJ, b.cover, b.maxW = e, c, maxW
					b = nil
				}
				if b == nil && uint64(i-r.start) < uint64(len(r.buckets)) && r.inside(i, a, t) {
					b, cur = &r.buckets[i-r.start], i
					e, c, maxW = b.energyJ, b.cover, b.maxW
					edge = float64(i+1) * r.width
					sure = r.sureIdx(i, edge)
				}
			}
			if b != nil {
				e += p * (t - a)
				c += t - a
				if p > maxW {
					maxW = p
				}
			} else {
				r.addRect(a, t, p, true)
			}
		}
		a, p = t, ws[k]
	}
	if b != nil {
		b.energyJ, b.cover, b.maxW = e, c, maxW
	}
}

// inside reports whether [t0, t1) lies inside bucket i, decided as
// addRect's fast path decides it.
func (r *rollup) inside(i int64, t0, t1 float64) bool {
	return t0 >= float64(i)*r.width && t1 <= float64(i+1)*r.width
}

// sureIdx returns a bound up to which idx is i for every t at or after
// one that idx puts in bucket i, so addRun can skip the division there;
// edge is float64(i+1)*width. idx(t) = floor(fl(t/width)) is monotone in
// t, so it is at least i from such a t on, and below i+1 while
// fl(t/width) < i+1. That holds for t <= edge*(1-2^-50): with edge > 0
// and normal, and i+1 < 2^52 exact, t/width is then below
// (i+1)*(1-2^-51), two or more ulps short of i+1, and rounding moves it
// half an ulp at most. Anywhere else, -Inf leaves every t to the division.
func (r *rollup) sureIdx(i int64, edge float64) float64 {
	if !(edge >= 0x1p-1000) || i >= 1<<52 {
		return math.Inf(-1)
	}
	return edge * (1 - 0x1p-50)
}

// overlap returns the first and last bucket index of the run that [t0, t1)
// touches (last < first when none): a read costs O(buckets of the run in
// the window), never O(window), whatever bounds a caller sends. The bounds
// are compared as floats before converting, so ±1e300 and ±Inf clamp to the
// run instead of overflowing int64.
func (r *rollup) overlap(t0, t1 float64) (first, last int64) {
	first, last = r.start, r.start+int64(len(r.buckets))-1
	if t1 <= t0 {
		return 0, -1
	}
	if i := math.Floor(t0 / r.width); i > float64(last) {
		return 0, -1
	} else if i > float64(first) {
		first = int64(i)
	}
	if i := r.lastBefore(t1); i < float64(first) {
		return 0, -1
	} else if i < float64(last) {
		last = int64(i)
	}
	return first, last
}

// energy integrates the rollup over [t0, t1]. Boundary buckets contribute
// pro-rata by overlap fraction, so the result deviates from the raw
// integral by at most width × the peak power per boundary.
func (r *rollup) energy(t0, t1 float64) float64 {
	e := 0.0
	first, last := r.overlap(t0, t1)
	for i := first; i <= last; i++ {
		b := r.buckets[i-r.start]
		if b.energyJ == 0 {
			continue
		}
		lo := math.Max(t0, float64(i)*r.width)
		hi := math.Min(t1, float64(i+1)*r.width)
		e += b.energyJ * (hi - lo) / r.width
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
			T0: float64(i) * r.width, T1: float64(i+1) * r.width,
			MeanW: b.energyJ / b.cover, MaxW: b.maxW, EnergyJ: b.energyJ,
		})
	}
	return out
}

// bytes estimates the rollup's memory footprint.
func (r *rollup) bytes() int64 { return int64(len(r.buckets)) * 24 }
