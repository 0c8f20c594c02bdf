package tsdb

import (
	"math"
	"math/rand"
	"testing"
)

// refRollup is a rollup written from the tick-grid rule alone, over a
// sparse map: bucket i holds the ticks [i·w, (i+1)·w), a rectangle adds to
// every bucket it overlaps by a tick or more, and a window reads every
// bucket its bounds' ticks overlap. It shares no code with rollup (its own
// floor division, a per-bucket clip instead of a carried edge, a scan of
// the whole run instead of a clamped index range) and has no dense run, so
// no growth policy: whatever the run does, every bucket and every answer
// must match this bit for bit.
type refRollup struct {
	w      int64 // width, ticks
	width  float64
	b      map[int64]bucket
	lo, hi int64 // extent [lo, hi) of the dense run the real rollup holds
}

func newRefRollup(width float64) *refRollup {
	w := int64(math.Round(width * 1e7))
	return &refRollup{w: w, width: float64(w) / 1e7, b: map[int64]bucket{}}
}

// of is the bucket holding tick k, floored by subtracting the remainder.
func (m *refRollup) of(k int64) int64 { return (k - ((k%m.w)+m.w)%m.w) / m.w }

func (m *refRollup) addRect(k0, k1 int64, p float64, cover bool) {
	if k1 <= k0 {
		return
	}
	first, last := m.of(k0), m.of(k1-1)
	if last-first+1 > maxRectBuckets {
		return // touches too many buckets
	}
	if len(m.b) > 0 && max(last+1, m.hi)-min(first, m.lo)-(m.hi-m.lo) > maxRectBuckets {
		return // grows the run too far
	}
	for i := first; i <= last; i++ {
		lo, hi := max(k0, i*m.w), min(k1, (i+1)*m.w)
		if len(m.b) == 0 {
			m.lo, m.hi = i, i+1
		}
		m.lo, m.hi = min(m.lo, i), max(m.hi, i+1)
		b := m.b[i]
		b.energyJ += p * (toSec(hi) - toSec(lo))
		if cover {
			b.cover += toSec(hi) - toSec(lo)
			if p > b.maxW {
				b.maxW = p
			}
		} else if p > 0 && b.maxW < p {
			b.maxW = p
		}
		m.b[i] = b
	}
}

// read visits the run's buckets the window [t0, t1) overlaps on the tick
// grid, in order. A bound far outside any run is held to ±4e11 s first,
// where its ticks still fit an int64.
func (m *refRollup) read(t0, t1 float64, visit func(i int64, b bucket)) {
	q0 := toTick(math.Max(-4e11, math.Min(4e11, t0)))
	q1 := toTick(math.Max(-4e11, math.Min(4e11, t1)))
	for i := m.lo; i < m.hi; i++ {
		if q0 < q1 && q0 < (i+1)*m.w && q1 > i*m.w {
			visit(i, m.b[i])
		}
	}
}

func (m *refRollup) energy(t0, t1 float64) float64 {
	e := 0.0
	m.read(t0, t1, func(i int64, b bucket) {
		if b.energyJ != 0 {
			lo := math.Max(t0, toSec(i*m.w))
			hi := math.Min(t1, toSec((i+1)*m.w))
			e += b.energyJ * (hi - lo) / m.width
		}
	})
	return e
}

func (m *refRollup) points(t0, t1 float64) []Point {
	var out []Point
	m.read(t0, t1, func(i int64, b bucket) {
		if b.cover > 0 {
			out = append(out, Point{
				T0: toSec(i * m.w), T1: toSec((i + 1) * m.w),
				MeanW: b.energyJ / b.cover, MaxW: b.maxW, EnergyJ: b.energyJ,
			})
		}
	})
	return out
}

// sameAsRef reports the first difference between a rollup and the
// reference, bit for bit: the run's extent and every bucket.
func sameAsRef(t *testing.T, r *rollup, ref *refRollup, where string) {
	t.Helper()
	if r.start != ref.lo || int64(len(r.buckets)) != ref.hi-ref.lo {
		t.Fatalf("%s: run [%d,+%d), want [%d,%d)", where, r.start, len(r.buckets), ref.lo, ref.hi)
	}
	bits := math.Float64bits
	for j, b := range r.buckets {
		if w := ref.b[r.start+int64(j)]; bits(b.energyJ) != bits(w.energyJ) || bits(b.cover) != bits(w.cover) || bits(b.maxW) != bits(w.maxW) {
			t.Fatalf("%s: bucket %d = %+v, want %+v", where, r.start+int64(j), b, w)
		}
	}
}

// TestRollupGrowthChangesNoBit drives addRect with seeded tick rectangles
// — in-order, out-of-order, duplicate-correction and backward-growing, and
// the odd glitch-sized one — and compares against refRollup with ==, never
// an epsilon: how the dense run is allocated is not allowed to show in a
// single bit of any bucket or any answer, nor in bytes(). The queries take
// bounds off the tick grid and on it, inside and around the run.
func TestRollupGrowthChangesNoBit(t *testing.T) {
	for _, width := range []float64{1, 60, 0.25} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r, ref := newRollup(width), newRefRollup(width)
			w := r.w
			add := func(k0, k1 int64, p float64, cover bool) {
				r.addRect(k0, k1, p, cover)
				ref.addRect(k0, k1, p, cover)
			}
			// Off-grid origin, negative for some seeds, so the floor and
			// the front-growth path both see negative bucket indexes.
			head := (seed%3-1)*1234*w + w*56/100
			tail := head + w/3
			add(head, tail, 400, true)
			for step := 0; step < 3000; step++ {
				p := 300 + 50*float64(rng.Intn(40))
				span := 1 + int64(float64(w)*(0.01+3*rng.Float64()*rng.Float64()))
				switch k := rng.Intn(20); {
				case k < 11: // in order: the next sample's rectangle
					add(tail, tail+span, p, true)
					tail += span
				case k < 14: // out-of-order insert inside the run
					k0 := head + rng.Int63n(tail-head)
					add(k0, k0+span, p, true)
				case k < 16: // duplicate overwrite: energy-only correction
					k0 := head + rng.Int63n(tail-head)
					add(k0, k0+span, p-1000, false)
				case k < 19: // backward growth, sometimes leaving a gap
					k1 := head - int64(float64(w)*float64(rng.Intn(3))*rng.Float64())
					add(k1-span, k1, p, true)
					head = k1 - span
				default: // clock glitch: too wide, or too far from the run
					if rng.Intn(2) == 0 {
						add(tail, tail+w*(maxRectBuckets+2), p, true)
					} else {
						far := w * (maxRectBuckets + 10)
						add(tail+far, tail+far+span, p, true)
						add(head-far-span, head-far, p, true)
					}
				}
				if step%97 != 0 && step != 2999 {
					continue
				}
				if got, want := r.bytes(), (ref.hi-ref.lo)*24; got != want {
					t.Fatalf("width %v seed %d step %d: bytes() = %d, want %d", width, seed, step, got, want)
				}
				sameAsRef(t, r, ref, "after step")
				from, extent := toSec(head)-2*width, toSec(tail-head)
				for q := 0; q < 8; q++ {
					t0 := from + rng.Float64()*(extent+4*width)
					t1 := t0 + rng.Float64()*extent/4
					switch e0, e1 := ref.of(toTick(t0))*w, ref.of(toTick(t1))*w; q % 4 {
					case 0: // on edges
						t0, t1 = toSec(e0), toSec(e1)
					case 1: // a tick to either side of one
						t0, t1 = toSec(e0-1), toSec(e1+1)
					}
					if got, want := r.energy(t0, t1), ref.energy(t0, t1); got != want {
						t.Fatalf("width %v seed %d step %d: energy(%v,%v) = %v, want %v", width, seed, step, t0, t1, got, want)
					}
					got, want := r.points(t0, t1, nil), ref.points(t0, t1)
					if len(got) != len(want) {
						t.Fatalf("width %v seed %d step %d: %d points, want %d", width, seed, step, len(got), len(want))
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("width %v seed %d step %d: point %d = %+v, want %+v", width, seed, step, j, got[j], want[j])
						}
					}
				}
			}
		}
	}
}

// TestAddRunMatchesReference holds the run path to the tick-grid rule:
// addRun keeps the open bucket's sums in locals and pre-grows the run, and
// refRollup adds each rectangle on its own, so every bucket must come out
// with the same Float64bits. Runs come in blocks of 1 to 128 samples, as
// appendRun hands them over, at 1 kS/s and 20 S/s, with energy-only
// corrections and a covering insert before the first sample in between;
// then ticks placed on the cases a bucket edge decides — a sample on the
// edge tick, one tick before or after it, a rectangle crossing one edge or
// three — at negative times and past 16384 s, over widths that are not a
// power-of-two fraction of a second (0.1, 7); then glitch-sized gaps.
func TestAddRunMatchesReference(t *testing.T) {
	powers := []float64{0, -50, 360, 420.146484375, 1890.5, 360, 5e-324}
	for _, width := range []float64{1, 60, 0.1, 7} {
		for _, origin := range []float64{-3.7 * width, 16384 + width/3} {
			rng := rand.New(rand.NewSource(int64(width*10) + int64(origin)))
			r, ref := newRollup(width), newRefRollup(width)
			w := r.w
			tick, pend := toTick(origin), 400.0
			// run appends the in-order ticks ks after the pending sample,
			// in blocks; the reference takes one rectangle at a time.
			run := func(ks []int64) {
				ws := make([]float64, len(ks))
				for j := range ws {
					ws[j] = powers[rng.Intn(len(powers))]
				}
				for len(ks) > 0 {
					n := 1 + rng.Intn(min(len(ks), 128))
					ts := make([]float64, n)
					for j := range ts {
						ts[j] = toSec(ks[j])
					}
					r.addRun(tick, pend, ks[:n], ts, ws[:n])
					a, p := tick, pend
					for j, k := range ks[:n] {
						ref.addRect(a, k, p, true)
						a, p = k, ws[j]
					}
					tick, pend, ks, ws = ks[n-1], ws[n-1], ks[n:], ws[n:]
					if rng.Intn(8) == 0 { // a duplicate re-attributes a covered span
						k0 := tick - rng.Int63n(4*w)
						k1, p := k0+1+rng.Int63n(3*w), float64(rng.Intn(200)-100)
						r.addRect(k0, k1, p, false)
						ref.addRect(k0, k1, p, false)
					}
				}
			}
			grid := func(n int, dt int64) []int64 {
				ks := make([]int64, n)
				for j := range ks {
					ks[j] = tick + int64(j+1)*dt
				}
				return ks
			}
			run(grid(1, 10000)) // the first rectangle ever: no run yet
			sameAsRef(t, r, ref, "the first rectangle")
			first := toTick(origin) - 3*w/2 // inserted before the first sample ever
			r.addRect(first, toTick(origin), 360, true)
			ref.addRect(first, toTick(origin), 360, true)
			run(grid(12000, 10000)) // 1 kS/s
			sameAsRef(t, r, ref, "1 kS/s")
			run(grid(2000, 500000)) // 20 S/s
			sameAsRef(t, r, ref, "20 S/s")
			for c := 0; c < 60; c++ {
				edge := (r.bucketOf(tick) + 1) * w
				var ks []int64
				switch c % 6 {
				case 0: // a sample on the edge tick
					ks = []int64{edge - 1 - rng.Int63n(w/2+1), edge}
				case 1: // one tick before it, then one after it
					ks = []int64{edge - 1, edge + 1}
				case 2: // the edge tick, then the next one
					ks = []int64{edge, edge + 1}
				case 3: // a rectangle crossing one edge
					ks = []int64{edge + 1 + rng.Int63n(w/2+1)}
				case 4: // a rectangle crossing three edges
					ks = []int64{edge + 2*w + 1 + rng.Int63n(w/2+1)}
				case 5: // a rectangle ending one tick past the next edge
					ks = []int64{edge + w + 1}
				}
				if ks[0] <= tick {
					ks = ks[1:]
				}
				run(ks)
				run(grid(30, 10000))
			}
			sameAsRef(t, r, ref, "edge cases")
			run([]int64{tick + w*(maxRectBuckets+10)}) // a glitch-sized gap: refused
			run(grid(500, 10000))
			far := tick + w*(maxRectBuckets+2) // and a glitch-sized width
			r.addRect(tick, far, 400, true)
			ref.addRect(tick, far, 400, true)
			sameAsRef(t, r, ref, "glitches")
		}
	}
}

// TestRollupBucketStartsOnItsEdge: a rectangle that starts on a bucket
// edge goes into that bucket, at a width a float cannot hold exactly.
// Three samples at 4.3, 4.35 and 4.4 s at 100 W cover [4.3, 4.4) with
// 10 J; splitting at a float edge computed by division dropped the
// rectangle starting on 4.3 s and read 5 J.
func TestRollupBucketStartsOnItsEdge(t *testing.T) {
	db := New(Options{Resolutions: []float64{0.1}})
	for _, ts := range []float64{4.3, 4.35, 4.4} {
		db.Append(0, ts, 100)
	}
	raw, err := db.EnergyAt(0, 4.3, 4.4, 0)
	if err != nil || math.Abs(raw-10) > 1e-9 {
		t.Fatalf("raw energy = %v, %v; want 10 J", raw, err)
	}
	got, err := db.EnergyAt(0, 4.3, 4.4, 0.1)
	if err != nil || math.Abs(got-raw) > 1e-9*raw {
		t.Errorf("rollup energy over [4.3, 4.4] = %v, %v; want the raw %v J", got, err, raw)
	}
}
