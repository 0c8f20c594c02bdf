package tsdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// modelSeries is one node's store over flat sorted slices, following only
// the documented ingest rules: the head seals its oldest ChunkSize samples
// when it reaches twice that, a sample at or before the newest sealed one
// is too old and dropped, a repeated timestamp overwrites, anything else
// is placed at its sorted position. Energy is the left-rectangle rule:
// each sample spans to its successor, the newest spans the last gap seen
// by an in-order append. No chunks, no prefix sums, no head window.
type modelSeries struct {
	ticks   []int64
	watts   []float64
	sealed  int // ticks[:sealed] are sealed
	lastGap float64
	oo      int
	dups    int
}

func (m *modelSeries) append(tick int64, w float64, chunkSize int) {
	n := len(m.ticks)
	i := sort.Search(n, func(k int) bool { return m.ticks[k] >= tick })
	switch {
	case i == n:
		if n > 0 {
			m.lastGap = toSec(tick) - toSec(m.ticks[n-1])
		}
	case m.sealed > 0 && tick <= m.ticks[m.sealed-1]:
		m.oo++
		return
	case m.ticks[i] == tick:
		m.dups++
		m.watts[i] = w
		return
	}
	m.ticks = append(m.ticks[:i], append([]int64{tick}, m.ticks[i:]...)...)
	m.watts = append(m.watts[:i], append([]float64{w}, m.watts[i:]...)...)
	if len(m.ticks)-m.sealed >= 2*chunkSize {
		m.sealed += chunkSize
	}
}

func (m *modelSeries) energy(t0, t1 float64) float64 {
	e := 0.0
	n := len(m.ticks)
	for i := range m.ticks {
		end := toSec(m.ticks[n-1]) + m.lastGap
		if i+1 < n {
			end = toSec(m.ticks[i+1])
		}
		if lo, hi := math.Max(toSec(m.ticks[i]), t0), math.Min(end, t1); hi > lo {
			e += m.watts[i] * (hi - lo)
		}
	}
	return e
}

func (m *modelSeries) points(t0, t1 float64) []Point {
	var out []Point
	for i, tk := range m.ticks {
		if t := toSec(tk); t >= t0 && t <= t1 {
			out = append(out, rawPoint(t, m.watts[i]))
		}
	}
	return out
}

// oracleUnit is the oracle's time step: 1 ms, on the tick grid.
const oracleUnit = tickHz / 1000

// checkStoreOracle decodes data as a stream of three-byte operations on
// three nodes — in-order appends, batches that continue a series or
// re-deliver part of it, out-of-order, duplicate and too-old samples, and
// queries — applies each to a store and to the model, and checks every
// query, then every node over windows cut at its samples, against the
// model: Energy within rounding, Window's energy on Energy's bits, the
// raw points of Window and Fetch exactly, IngestedSamples, and the
// too-old and duplicate counts in Stats. A twin store takes the same
// samples one Append at a time; at every query and at the end, Window at
// res 0, 1 and 60 and Stats must equal the twin's bit for bit, so a batch
// applied as a run leaves what its samples one by one would.
func checkStoreOracle(t testing.TB, data []byte) {
	const chunkSize, nodes = 8, 3
	db := New(Options{ChunkSize: chunkSize})
	// twin takes every sample by one Append, batches included.
	twin := New(Options{ChunkSize: chunkSize})
	models := make([]*modelSeries, nodes)
	for i := range models {
		models[i] = &modelSeries{}
	}
	put := func(node int, tick int64, w float64) {
		db.Append(node, toSec(tick), w)
		twin.Append(node, toSec(tick), w)
		models[node].append(tick, w, chunkSize)
	}
	// sameAsTwin holds the store to the twin: Window at every resolution
	// with the same bits, the same error and the same points, and Stats.
	sameAsTwin := func(node int, t0, t1 float64) {
		t.Helper()
		for _, res := range []float64{0, 1, 60} {
			e, pts, err := db.Window(node, t0, t1, res, nil)
			we, wpts, werr := twin.Window(node, t0, t1, res, nil)
			if math.Float64bits(e) != math.Float64bits(we) || fmt.Sprint(err) != fmt.Sprint(werr) || len(pts) != len(wpts) {
				t.Fatalf("node %d [%v, %v] res %v: Window %v, %d points, %v; twin %v, %d points, %v",
					node, t0, t1, res, e, len(pts), err, we, len(wpts), werr)
			}
			for i := range pts {
				if p, q := pts[i], wpts[i]; math.Float64bits(p.T0) != math.Float64bits(q.T0) || math.Float64bits(p.T1) != math.Float64bits(q.T1) ||
					math.Float64bits(p.MeanW) != math.Float64bits(q.MeanW) || math.Float64bits(p.MaxW) != math.Float64bits(q.MaxW) ||
					math.Float64bits(p.EnergyJ) != math.Float64bits(q.EnergyJ) {
					t.Fatalf("node %d [%v, %v] res %v: point %d = %+v, twin %+v", node, t0, t1, res, i, p, q)
				}
			}
		}
		if st, wst := db.Stats(), twin.Stats(); st != wst {
			t.Fatalf("Stats %+v, twin %+v", st, wst)
		}
	}
	newest := func(m *modelSeries) int64 {
		if len(m.ticks) == 0 {
			return tickHz
		}
		return m.ticks[len(m.ticks)-1]
	}
	check := func(node int, t0, t1 float64) {
		t.Helper()
		m := models[node]
		want := m.energy(t0, t1)
		got, err := db.Energy(node, t0, t1)
		switch {
		case len(m.ticks) == 0:
			if !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("node %d [%v, %v]: err %v, want ErrUnknownNode", node, t0, t1, err)
			}
			return
		case len(m.ticks) < 2:
			if !errors.Is(err, ErrShortSeries) {
				t.Fatalf("node %d [%v, %v]: err %v, want ErrShortSeries", node, t0, t1, err)
			}
		case err != nil:
			t.Fatalf("node %d [%v, %v]: %v", node, t0, t1, err)
		case math.Abs(got-want) > 1e-9*math.Max(1, want):
			t.Fatalf("node %d [%v, %v]: energy %v, model %v", node, t0, t1, got, want)
		}
		wantP := m.points(t0, t1)
		e, pts, werr := db.Window(node, t0, t1, 0, nil)
		if (werr == nil) != (err == nil) || math.Float64bits(e) != math.Float64bits(got) {
			t.Fatalf("node %d [%v, %v]: Window %v, %v; Energy %v, %v", node, t0, t1, e, werr, got, err)
		}
		fetched, ferr := db.Fetch(node, t0, t1, 0)
		if ferr != nil {
			t.Fatalf("node %d [%v, %v]: Fetch: %v", node, t0, t1, ferr)
		}
		lists := [][]Point{fetched}
		if werr == nil {
			lists = append(lists, pts) // Window lists nothing beside an error
		} else if len(pts) != 0 {
			t.Fatalf("node %d [%v, %v]: Window listed %d points beside %v", node, t0, t1, len(pts), werr)
		}
		for _, list := range lists {
			if len(list) != len(wantP) {
				t.Fatalf("node %d [%v, %v]: %d points, model %d", node, t0, t1, len(list), len(wantP))
			}
			for i := range list {
				if list[i] != wantP[i] {
					t.Fatalf("node %d [%v, %v]: point %d = %+v, model %+v", node, t0, t1, i, list[i], wantP[i])
				}
			}
		}
	}
	// at is the time of the model's sample k (mod its length), nudged
	// half a unit either way or not at all.
	at := func(m *modelSeries, k, nudge byte) float64 {
		if len(m.ticks) == 0 {
			return 0
		}
		return toSec(m.ticks[int(k)%len(m.ticks)] + int64(int(nudge)%3-1)*oracleUnit/2)
	}
	for ; len(data) >= 3; data = data[3:] {
		op, a, b := data[0], data[1], data[2]
		node := int(op>>4) % nodes
		m := models[node]
		w := 300 + float64(b)*2.5
		switch op % 8 {
		case 0, 1: // in order, one to four units after the newest
			put(node, newest(m)+int64(1+a%4)*oracleUnit, w)
		case 2: // a batch after the newest, or re-delivering up to 15 units behind it
			start := newest(m) + int64(1+b%2)*oracleUnit
			if b&0x80 != 0 {
				start = newest(m) - int64(b%16)*oracleUnit
			}
			dt := float64(1+b%3) / 1000
			samples := make([]float64, 1+a%24)
			for i := range samples {
				samples[i] = 300 + float64((int(a)*7+i*13)%256)*2.5
			}
			db.AppendBatch(node, toSec(start), dt, samples)
			for i, s := range samples {
				twin.Append(node, toSec(start)+float64(i)*dt, s)
				m.append(toTick(toSec(start)+float64(i)*dt), s, chunkSize)
			}
		case 3: // out of order: on the grid or between two units
			put(node, newest(m)-int64(1+a%16)*oracleUnit+int64(b%2)*oracleUnit/2, w)
		case 4: // the newest again
			put(node, newest(m), w)
		case 5: // an older sample again, sealed or not
			if n := len(m.ticks); n > 0 {
				put(node, m.ticks[n-1-int(a)%n], w)
			}
		case 6: // far too old
			put(node, newest(m)-int64(200+int(a))*oracleUnit, w)
		default:
			t0, t1 := at(m, a, b), at(m, b, a)
			if t1 < t0 {
				t0, t1 = t1, t0
			}
			check(node, t0, t1)
			sameAsTwin(node, t0, t1)
		}
	}
	var oo, dups int
	for node, m := range models {
		if got := db.IngestedSamples(node); got != len(m.ticks) {
			t.Fatalf("node %d: IngestedSamples %d, model %d", node, got, len(m.ticks))
		}
		oo += m.oo
		dups += m.dups
		if len(m.ticks) == 0 {
			check(node, 0, 1)
			sameAsTwin(node, 0, 1)
			continue
		}
		first, end := toSec(m.ticks[0]), toSec(newest(m))+m.lastGap
		check(node, first-1, end+1)
		sameAsTwin(node, first-1, end+1)
		check(node, first-1, first-0.5)
		check(node, end, end+1)
		for k := 0; k < len(m.ticks); k += 1 + len(m.ticks)/16 {
			t0 := toSec(m.ticks[k])
			check(node, t0, t0)
			check(node, first, t0)
			check(node, t0, end)
		}
	}
	if st := db.Stats(); st.OutOfOrderDropped != oo || st.Duplicates != dups {
		t.Fatalf("Stats: %d too old, %d duplicates; model %d, %d", st.OutOfOrderDropped, st.Duplicates, oo, dups)
	}
}

// TestStoreMatchesFlatModel runs the oracle over seeded operation streams.
func TestStoreMatchesFlatModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 1500)
		rng.Read(data)
		checkStoreOracle(t, data)
	}
}

// FuzzStoreOracle runs the oracle over arbitrary operation streams.
func FuzzStoreOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 7, 0, 1})
	// A batch of 20 across the seal at 16 samples, then another.
	f.Add([]byte{0, 3, 0, 2, 19, 0, 7, 0, 5, 2, 19, 1, 7, 3, 30})
	// 24 samples, then a batch of 20 whose first half re-delivers the
	// newest ten (duplicates) before it continues.
	f.Add([]byte{2, 23, 0, 2, 19, 0x8a, 7, 20, 40, 2, 11, 0x85, 7, 2, 9})
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 4; i++ {
		data := make([]byte, 300)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 768 {
			data = data[:768]
		}
		checkStoreOracle(t, data)
	})
}
