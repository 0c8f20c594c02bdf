package tsdb

import (
	"sort"
)

// chunkMeta is the in-memory index entry of one sealed, immutable chunk.
// energyJ is the precomputed rectangle-rule partial sum over
// [tFirst, tLast) — the gap from tLast to the next chunk's first sample
// is lastW*(gap) and is accounted by the series-level prefix sums — so a
// window query only decodes the (at most two) chunks its boundaries cut.
type chunkMeta struct {
	data    []byte
	count   int
	tFirst  int64
	tLast   int64
	lastW   float64 // power of the chunk's last sample (spans the gap)
	energyJ float64 // left-rectangle energy over [tFirst, tLast)
}

// series is one node's store: sealed compressed chunks plus an
// uncompressed head window that absorbs appends and bounded reordering.
type series struct {
	node   int
	chunks []chunkMeta
	// cumE[k] = energy of chunks[0..k-1] including inter-chunk gaps; only
	// differences are meaningful, so retention can re-slice it.
	cumE  []float64
	headT []int64
	headW []float64

	pendT   int64   // latest timestamp seen (the pending sample)
	pendW   float64 // its power
	lastGap float64 // seconds between the two latest timestamps

	rolls      []*rollup
	droppedRaw bool // retention has dropped sealed chunks
	total      int  // samples accepted, ever (incl. later-dropped raw)
	oo         int  // too-old samples dropped (older than the sealed horizon)
	dups       int  // duplicate timestamps overwritten
	drops      int  // sealed chunks dropped by retention, ever
}

func newSeries(node int, widths []float64) *series {
	s := &series{node: node}
	for _, w := range widths {
		s.rolls = append(s.rolls, newRollup(w))
	}
	return s
}

// sealedEnd is the newest sealed timestamp (appends at or before it are
// too old to place), or minInt64 when nothing is sealed.
func (s *series) sealedEnd() int64 {
	if len(s.chunks) == 0 {
		return -1 << 62
	}
	return s.chunks[len(s.chunks)-1].tLast
}

// append ingests samples[k] at toTick(t0+k*dt), in order: a run of
// samples whose ticks increase strictly past the newest goes in as one
// unit (appendRun), and any other sample goes through place, one at a
// time. chunkSize bounds the head; retainRaw > 0 drops sealed chunks
// older than that horizon behind the newest sample. The state afterwards
// is, bit for bit, what one place per sample would leave.
func (s *series) append(t0, dt float64, samples []float64, chunkSize int, retainRaw float64) {
	for i := 0; i < len(samples); {
		tick := toTick(t0 + float64(i)*dt)
		if s.total > 0 && tick <= s.pendT {
			s.place(tick, samples[i], chunkSize, retainRaw)
			i++
			continue
		}
		i = s.appendRun(tick, i, t0, dt, samples, chunkSize, retainRaw)
	}
}

// appendRun appends samples[i:j] as one run and returns j. Sample i, at
// tick, is in order; the run ends before the first sample whose tick does
// not increase, or where the head reaches 2*chunkSize and seals, so the
// head holds exactly what it would after j-i in-order appends and every
// seal, and dropRawBefore, happens at the sample it would.
func (s *series) appendRun(tick int64, i int, t0, dt float64, samples []float64, chunkSize int, retainRaw float64) int {
	base := len(s.headT)
	stop := min(len(samples), i+2*chunkSize-base)
	s.headT = append(s.headT, tick)
	j := i + 1
	for ; j < stop; j++ {
		next := toTick(t0 + float64(j)*dt)
		if next <= tick {
			break
		}
		s.headT = append(s.headT, next)
		tick = next
	}
	ticks, ws := s.headT[base:], samples[i:j]
	s.headW = append(s.headW, ws...)
	// Each sample's rectangle enters the rollups once its right neighbour
	// is known: the pending sample's first, unless this run opens the
	// series. Each tick's seconds are computed once for every rollup, a
	// block at a time.
	a, p := s.pendT, s.pendW
	if s.total == 0 {
		a, p, ticks, ws = ticks[0], ws[0], ticks[1:], ws[1:]
	}
	var buf [128]float64
	for len(ticks) > 0 {
		n := min(len(ticks), len(buf))
		ks, ts := ticks[:n], buf[:n]
		for k, tick := range ks {
			ts[k] = toSec(tick)
		}
		for _, r := range s.rolls {
			r.addRun(a, p, ks, ts, ws)
		}
		prev := toSec(a)
		if n > 1 {
			prev = ts[n-2]
		}
		s.lastGap = ts[n-1] - prev
		a, p, ticks, ws = ks[n-1], ws[n-1], ticks[n:], ws[n:]
	}
	s.pendT, s.pendW = tick, samples[j-1]
	s.total += j - i
	s.maybeSeal(chunkSize, retainRaw)
	return j
}

// place ingests one sample at or before the newest: a duplicate of the
// newest, one too old to place, or an out-of-order insert.
func (s *series) place(tick int64, w float64, chunkSize int, retainRaw float64) {
	n := len(s.headT)
	switch {
	case tick == s.pendT:
		// Duplicate of the newest sample: overwrite in place (unless it
		// was just sealed into an immutable chunk).
		s.dups++
		if n > 0 {
			s.headW[n-1] = w
			s.pendW = w
		}
		return
	case tick <= s.sealedEnd():
		// Behind the sealed horizon: immutable chunks cannot take it.
		s.oo++
		return
	default:
		// Out-of-order within the head window (or in the gap between the
		// last sealed chunk and the head): sorted insert.
		i := sort.Search(n, func(k int) bool { return s.headT[k] >= tick })
		if i < n && s.headT[i] == tick {
			s.dups++
			old := s.headW[i]
			s.headW[i] = w
			// Re-attribute the sample's already-covered span.
			end := s.pendT
			if i+1 < n {
				end = s.headT[i+1]
			}
			if s.headT[i] != s.pendT {
				for _, r := range s.rolls {
					r.addRect(tick, end, w-old, false)
				}
			}
			return
		}
		// Power level previously covering [tick, next): the left
		// neighbour in the head, or the last sealed sample.
		var prevW float64
		covered := true
		if i > 0 {
			prevW = s.headW[i-1]
		} else if len(s.chunks) > 0 {
			prevW = s.chunks[len(s.chunks)-1].lastW
		} else {
			covered = false // inserting before the first-ever sample
		}
		next := s.headT[i]
		for _, r := range s.rolls {
			if covered {
				r.addRect(tick, next, w-prevW, false)
			} else {
				r.addRect(tick, next, w, true)
			}
		}
		s.headT = append(s.headT, 0)
		s.headW = append(s.headW, 0)
		copy(s.headT[i+1:], s.headT[i:])
		copy(s.headW[i+1:], s.headW[i:])
		s.headT[i] = tick
		s.headW[i] = w
	}
	s.total++
	s.maybeSeal(chunkSize, retainRaw)
}

// maybeSeal seals once the head holds two chunks' worth, compressing only
// the older half: the newest chunkSize samples stay open, so the
// reordering tolerance is a rolling window of at least chunkSize samples
// behind the newest — it never resets to zero at a seal.
func (s *series) maybeSeal(chunkSize int, retainRaw float64) {
	if len(s.headT) >= 2*chunkSize {
		s.seal(chunkSize)
		if retainRaw > 0 {
			s.dropRawBefore(toSec(s.pendT) - retainRaw)
		}
	}
}

// seal compresses the oldest n head samples, 0 < n <= len(head), into
// one immutable chunk, leaving the rest as the open reorder window.
func (s *series) seal(n int) {
	e, prev := 0.0, toSec(s.headT[0])
	for i := 0; i < n-1; i++ {
		next := toSec(s.headT[i+1])
		e += s.headW[i] * (next - prev)
		prev = next
	}
	meta := chunkMeta{
		data: encodeChunk(s.headT[:n], s.headW[:n]), count: n,
		tFirst: s.headT[0], tLast: s.headT[n-1],
		lastW: s.headW[n-1], energyJ: e,
	}
	if k := len(s.chunks); k > 0 {
		prev := s.chunks[k-1]
		gap := prev.energyJ + prev.lastW*(toSec(meta.tFirst)-toSec(prev.tLast))
		s.cumE = append(s.cumE, s.cumE[k-1]+gap)
	} else {
		s.cumE = append(s.cumE, 0)
	}
	s.chunks = append(s.chunks, meta)
	s.headT = append(s.headT[:0], s.headT[n:]...)
	s.headW = append(s.headW[:0], s.headW[n:]...)
}

// dropRawBefore drops sealed chunks whose whole span (including the gap
// to the next chunk) ends at or before t. Rollups are untouched, so the
// dropped range remains queryable at rollup resolution.
func (s *series) dropRawBefore(t float64) int {
	d := 0
	for d < len(s.chunks)-1 && toSec(s.chunks[d+1].tFirst) <= t {
		d++
	}
	// The last chunk may go too if the head has moved past t.
	if d == len(s.chunks)-1 && len(s.headT) > 0 && toSec(s.headT[0]) <= t {
		d++
	}
	if d == 0 {
		return 0
	}
	s.droppedRaw = true
	s.drops += d
	s.chunks = s.chunks[d:]
	if d < len(s.cumE) {
		s.cumE = s.cumE[d:]
	} else {
		s.cumE = s.cumE[:0]
	}
	return d
}

// rawStart is the earliest retained raw timestamp in seconds, or +inf.
func (s *series) rawStart() float64 {
	if len(s.chunks) > 0 {
		return toSec(s.chunks[0].tFirst)
	}
	if len(s.headT) > 0 {
		return toSec(s.headT[0])
	}
	return 1e300
}

// retained counts raw samples currently held.
func (s *series) retained() int {
	n := len(s.headT)
	for _, c := range s.chunks {
		n += c.count
	}
	return n
}

// end returns the exclusive end of the series: the pending sample covers
// one trailing rectangle as wide as the last observed gap.
func (s *series) end() float64 { return toSec(s.pendT) + s.lastGap }

// chunkSpanEnd is the exclusive end of chunk k's coverage: the next
// chunk's first sample, the head's first sample, or the series end.
func (s *series) chunkSpanEnd(k int) float64 {
	if k+1 < len(s.chunks) {
		return toSec(s.chunks[k+1].tFirst)
	}
	if len(s.headT) > 0 {
		return toSec(s.headT[0])
	}
	return s.end()
}

// integrate computes the exact rectangle-rule energy over [t0, t1] from
// retained raw data: O(log chunks) to locate the window, prefix sums for
// interior chunks, and decoding only for the chunks the boundaries cut.
//
// With pts non-nil the same pass also appends the raw samples with t in
// [t0, t1], in time order: a boundary chunk's one decode feeds the clip sum
// and the points, an interior chunk is decoded for its points alone. A
// sample at exactly t1, or a newest sample at t0 with no gap after it, is
// a point that spans nothing, so with pts the walk reaches those too; that
// adds only zero-width rectangles and the energy keeps its bits.
func (s *series) integrate(t0, t1 float64, pts *[]Point) float64 {
	wide := pts != nil
	if t1 <= t0 && !wide {
		return 0
	}
	// past: a chunk or head sample starting at t is beyond the walk.
	past := func(t float64) bool { return t > t1 || t == t1 && !wide }
	e := 0.0
	nc := len(s.chunks)
	// First chunk whose span can overlap the window.
	lo := sort.Search(nc, func(k int) bool { return s.chunkSpanEnd(k) > t0 })
	k := lo
	for k < nc && !past(toSec(s.chunks[k].tFirst)) {
		c := &s.chunks[k]
		spanEnd := s.chunkSpanEnd(k)
		if toSec(c.tFirst) >= t0 && spanEnd <= t1 {
			// Whole chunks inside the window: prefer the prefix sums.
			j := k
			for j+1 < nc && s.chunkSpanEnd(j+1) <= t1 {
				j++
			}
			for i := k; wide && i <= j; i++ {
				_ = decodeChunk(s.chunks[i].data, s.chunks[i].count, func(tick int64, w float64) bool {
					*pts = append(*pts, rawPoint(toSec(tick), w))
					return true
				})
			}
			if j > k {
				e += s.cumE[j] - s.cumE[k]
				k = j
				c = &s.chunks[k]
				spanEnd = s.chunkSpanEnd(k)
			}
			e += c.energyJ + c.lastW*(spanEnd-toSec(c.tLast))
			k++
			continue
		}
		// Boundary chunk: decode and clip sample rectangles.
		var prevT float64
		var prevW float64
		first := true
		_ = decodeChunk(c.data, c.count, func(tick int64, w float64) bool {
			ts := toSec(tick)
			if !first {
				e += clipRect(prevT, ts, prevW, t0, t1)
			}
			if wide && ts >= t0 && ts <= t1 {
				*pts = append(*pts, rawPoint(ts, w))
			}
			prevT, prevW, first = ts, w, false
			return prevT < t1
		})
		if prevT < t1 {
			e += clipRect(toSec(c.tLast), spanEnd, c.lastW, t0, t1)
		}
		k++
	}
	// Head samples: rectangle i spans to its successor; the pending
	// sample spans the last observed gap.
	n := len(s.headT)
	if n > 0 && (wide || s.end() > t0) && !past(toSec(s.headT[0])) {
		i := sort.Search(n, func(k int) bool { return toSec(s.headT[k]) > t0 })
		if i > 0 {
			i--
		}
		for ; i < n; i++ {
			ts := toSec(s.headT[i])
			if past(ts) {
				break
			}
			end := s.end()
			if i+1 < n {
				end = toSec(s.headT[i+1])
			}
			e += clipRect(ts, end, s.headW[i], t0, t1)
			if wide && ts >= t0 {
				*pts = append(*pts, rawPoint(ts, s.headW[i]))
			}
		}
	}
	return e
}

// rawPoint is one raw sample as a Point.
func rawPoint(t, w float64) Point { return Point{T0: t, T1: t, MeanW: w, MaxW: w} }

// clipRect is the overlap energy of one rectangle with the window.
func clipRect(lo, hi, p, t0, t1 float64) float64 {
	if lo < t0 {
		lo = t0
	}
	if hi > t1 {
		hi = t1
	}
	if hi <= lo {
		return 0
	}
	return p * (hi - lo)
}
