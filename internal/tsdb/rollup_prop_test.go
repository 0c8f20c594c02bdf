package tsdb

import (
	"math"
	"math/rand"
	"testing"
)

// refRollup is the rollup's arithmetic over a sparse map: the same
// rectangle split, the same glitch guards and the same query formulas, but
// no dense run, so no growth policy. Whatever the run's allocation scheme
// does, every bucket and every answer must match this bit for bit.
type refRollup struct {
	width  float64
	b      map[int64]bucket
	lo, hi int64 // extent [lo, hi) of the dense run the real rollup holds
}

func (m *refRollup) idx(t float64) int64 { return int64(math.Floor(t / m.width)) }

// last is the index of the last bucket starting before t1.
func (m *refRollup) last(t1 float64) int64 {
	i := m.idx(t1)
	if float64(i)*m.width >= t1 {
		i--
	}
	return i
}

func (m *refRollup) addRect(t0, t1, p float64, cover bool) {
	if t1 <= t0 || (t1-t0)/m.width > maxRectBuckets {
		return
	}
	first, end := m.idx(t0), m.last(t1)+1
	if len(m.b) > 0 && max(end, m.hi)-min(first, m.lo)-(m.hi-m.lo) > maxRectBuckets {
		return
	}
	for i := first; ; i++ {
		lo := math.Max(t0, float64(i)*m.width)
		hi := math.Min(t1, float64(i+1)*m.width)
		if hi <= lo {
			break
		}
		if len(m.b) == 0 {
			m.lo, m.hi = i, i+1
		}
		m.lo, m.hi = min(m.lo, i), max(m.hi, i+1)
		b := m.b[i]
		b.energyJ += p * (hi - lo)
		if cover {
			b.cover += hi - lo
			if p > b.maxW {
				b.maxW = p
			}
		} else if p > 0 && b.maxW < p {
			b.maxW = p
		}
		m.b[i] = b
		if hi >= t1 {
			break
		}
	}
}

func (m *refRollup) energy(t0, t1 float64) float64 {
	e := 0.0
	if t1 <= t0 {
		return e
	}
	for i := m.idx(t0); i <= m.last(t1); i++ {
		b := m.b[i]
		if b.energyJ == 0 {
			continue
		}
		lo := math.Max(t0, float64(i)*m.width)
		hi := math.Min(t1, float64(i+1)*m.width)
		e += b.energyJ * (hi - lo) / m.width
	}
	return e
}

func (m *refRollup) maxPower(t0, t1 float64) float64 {
	mx := 0.0
	if t1 <= t0 {
		return mx
	}
	for i := m.idx(t0); i <= m.last(t1); i++ {
		mx = math.Max(mx, m.b[i].maxW)
	}
	return mx
}

func (m *refRollup) points(t0, t1 float64) []Point {
	var out []Point
	if t1 <= t0 {
		return out
	}
	for i := m.idx(t0); i <= m.last(t1); i++ {
		b := m.b[i]
		if b.cover <= 0 {
			continue
		}
		out = append(out, Point{
			T0: float64(i) * m.width, T1: float64(i+1) * m.width,
			MeanW: b.energyJ / b.cover, MaxW: b.maxW, EnergyJ: b.energyJ,
		})
	}
	return out
}

// TestRollupGrowthChangesNoBit drives addRect with seeded in-order,
// out-of-order, duplicate-correction and backward-growing rectangles (and
// the odd glitch-sized one) and compares against refRollup with ==, never
// an epsilon: how the dense run is allocated is not allowed to show in a
// single bit of any bucket or any answer, nor in bytes().
func TestRollupGrowthChangesNoBit(t *testing.T) {
	for _, width := range []float64{1, 60, 0.25} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r := &rollup{width: width}
			ref := &refRollup{width: width, b: map[int64]bucket{}}
			add := func(t0, t1, p float64, cover bool) {
				r.addRect(t0, t1, p, cover)
				ref.addRect(t0, t1, p, cover)
			}
			// Off-grid origin, negative for some seeds, so floor() and
			// the front-growth path both see negative bucket indexes.
			head := (float64(seed%3) - 1) * 1234.56 * width
			tail := head + width/3
			add(head, tail, 400, true)
			for step := 0; step < 3000; step++ {
				p := 300 + 50*float64(rng.Intn(40))
				span := width * (0.01 + 3*rng.Float64()*rng.Float64())
				switch k := rng.Intn(20); {
				case k < 11: // in order: the next sample's rectangle
					add(tail, tail+span, p, true)
					tail += span
				case k < 14: // out-of-order insert inside the run
					t0 := head + rng.Float64()*(tail-head)
					add(t0, t0+span, p, true)
				case k < 16: // duplicate overwrite: energy-only correction
					t0 := head + rng.Float64()*(tail-head)
					add(t0, t0+span, p-1000, false)
				case k < 19: // backward growth, sometimes leaving a gap
					t1 := head - width*float64(rng.Intn(3))*rng.Float64()
					add(t1-span, t1, p, true)
					head = t1 - span
				default: // clock glitch: too wide, or too far from the run
					if rng.Intn(2) == 0 {
						add(tail, tail+width*(maxRectBuckets+2), p, true)
					} else {
						far := width * (maxRectBuckets + 10)
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
				if r.start != ref.lo || int64(len(r.buckets)) != ref.hi-ref.lo {
					t.Fatalf("width %v seed %d step %d: run [%d,+%d), want [%d,%d)",
						width, seed, step, r.start, len(r.buckets), ref.lo, ref.hi)
				}
				for j, b := range r.buckets {
					if b != ref.b[r.start+int64(j)] {
						t.Fatalf("width %v seed %d step %d: bucket %d = %+v, want %+v",
							width, seed, step, r.start+int64(j), b, ref.b[r.start+int64(j)])
					}
				}
				for q := 0; q < 8; q++ {
					t0 := head - 2*width + rng.Float64()*(tail-head+4*width)
					t1 := t0 + rng.Float64()*(tail-head)/4
					if got, want := r.energy(t0, t1), ref.energy(t0, t1); got != want {
						t.Fatalf("width %v seed %d step %d: energy(%v,%v) = %v, want %v", width, seed, step, t0, t1, got, want)
					}
					if got, want := r.maxPower(t0, t1), ref.maxPower(t0, t1); got != want {
						t.Fatalf("width %v seed %d step %d: maxPower(%v,%v) = %v, want %v", width, seed, step, t0, t1, got, want)
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

// TestAddRectFastPathMatchesReference holds addRect's one-bucket fast path
// to the rectangle split it short-cuts. refRollup above is that split (the
// loop addRect had before the fast path, over a map) and takes no
// short cut, so every bucket must come out with the same Float64bits, on
// the streams ingest produces — in-order 1 kS/s and 20 S/s runs on the
// tick grid — and on the cases where "inside one bucket" is decided by a
// rounding: rectangles that end or start exactly on a bucket edge, cross
// one or three, open the run, lie at negative times or past 16384 s (where
// 1e-12 is below half an ulp), fall a glitch-sized gap away, or are energy-only
// corrections; widths 0.1 and 7 have edges a float cannot hold exactly.
func TestAddRectFastPathMatchesReference(t *testing.T) {
	powers := []float64{0, -50, 360, 420.146484375, 1890.5, 360, 5e-324}
	for _, width := range []float64{1, 60, 0.1, 7} {
		for _, origin := range []float64{-3.7 * width, 16384 + width/3} {
			rng := rand.New(rand.NewSource(int64(width*10) + int64(origin)))
			r := &rollup{width: width}
			ref := &refRollup{width: width, b: map[int64]bucket{}}
			add := func(t0, t1, p float64, cover bool) {
				r.addRect(t0, t1, p, cover)
				ref.addRect(t0, t1, p, cover)
			}
			check := func(phase string) {
				t.Helper()
				if r.start != ref.lo || int64(len(r.buckets)) != ref.hi-ref.lo {
					t.Fatalf("width %v origin %v after %s: run [%d,+%d), want [%d,%d)", width, origin, phase, r.start, len(r.buckets), ref.lo, ref.hi)
				}
				for j, b := range r.buckets {
					if w := ref.b[r.start+int64(j)]; math.Float64bits(b.energyJ) != math.Float64bits(w.energyJ) ||
						math.Float64bits(b.cover) != math.Float64bits(w.cover) || math.Float64bits(b.maxW) != math.Float64bits(w.maxW) {
						t.Fatalf("width %v origin %v after %s: bucket %d = %+v, want %+v", width, origin, phase, r.start+int64(j), b, w)
					}
				}
			}
			tick := toTick(origin)
			run := func(n int, dtTicks int64) { // an in-order batch, corrections interleaved
				for i := 0; i < n; i++ {
					add(toSec(tick), toSec(tick+dtTicks), powers[rng.Intn(len(powers))], true)
					tick += dtTicks
					if rng.Intn(50) == 0 {
						t0 := toSec(tick - int64(rng.Intn(400))*dtTicks)
						add(t0, t0+toSec(dtTicks*int64(1+rng.Intn(3))), float64(rng.Intn(200)-100), false)
					}
				}
			}
			add(toSec(tick), toSec(tick+10000), 400, true) // the first rectangle ever
			tick += 10000
			check("the first rectangle")
			run(12000, 10000) // 1 kS/s
			check("1 kS/s")
			run(2000, 500000) // 20 S/s
			check("20 S/s")
			for k := 0; k < 48; k++ { // edges, exactly: idx(t) of a product, not of a tick
				edge := float64(r.idx(toSec(tick))+1) * width
				span := width * (0.001 + rng.Float64()/2)
				p := powers[rng.Intn(len(powers))]
				switch k % 6 {
				case 0:
					add(edge-span, edge, p, true) // ends on the edge
				case 1:
					add(edge, edge+span, p, true) // starts on it
				case 2:
					add(edge-span, edge+span, p, true) // crosses it
				case 3:
					add(edge-span, edge+2*width+span, p, true) // crosses three
				case 4:
					add(edge, edge+span, p, true)                               // opens the bucket, then
					add(math.Nextafter(edge, math.Inf(-1)), edge+span, p, true) // starts one ulp before it: idx may still say this bucket
				case 5:
					add(edge+span, math.Nextafter(edge+width, math.Inf(1)), p, true) // ends one ulp past the next
				}
				tick = toTick(edge + 3*width)
				run(30, 10000)
			}
			check("edge cases")
			far := toSec(tick) + width*(maxRectBuckets+10)
			add(far, far+width/2, 400, true)                                  // a glitch-sized gap: refused
			add(toSec(tick), toSec(tick)+width*(maxRectBuckets+2), 400, true) // and a glitch-sized width
			run(500, 10000)
			check("glitches")
		}
	}
}
