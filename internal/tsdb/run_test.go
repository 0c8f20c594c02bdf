package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// seriesDiff describes the first difference between two series' whole
// state, bit for bit, or returns "" when there is none: chunk bytes and
// meta, cumE, head, pending sample, last gap, counters, and each rollup's
// run. Capacities are not state.
func seriesDiff(a, b *series) string {
	bits := math.Float64bits
	if len(a.chunks) != len(b.chunks) {
		return fmt.Sprintf("%d chunks, want %d", len(a.chunks), len(b.chunks))
	}
	for k := range a.chunks {
		x, y := a.chunks[k], b.chunks[k]
		if string(x.data) != string(y.data) || x.count != y.count || x.tFirst != y.tFirst || x.tLast != y.tLast ||
			bits(x.lastW) != bits(y.lastW) || bits(x.energyJ) != bits(y.energyJ) {
			return fmt.Sprintf("chunk %d = %+v, want %+v", k, x, y)
		}
	}
	if len(a.cumE) != len(b.cumE) {
		return fmt.Sprintf("%d cumE entries, want %d", len(a.cumE), len(b.cumE))
	}
	for k := range a.cumE {
		if bits(a.cumE[k]) != bits(b.cumE[k]) {
			return fmt.Sprintf("cumE[%d] = %v, want %v", k, a.cumE[k], b.cumE[k])
		}
	}
	if len(a.headT) != len(b.headT) || len(a.headW) != len(a.headT) || len(b.headW) != len(b.headT) {
		return fmt.Sprintf("head %d/%d samples, want %d/%d", len(a.headT), len(a.headW), len(b.headT), len(b.headW))
	}
	for k := range a.headT {
		if a.headT[k] != b.headT[k] || bits(a.headW[k]) != bits(b.headW[k]) {
			return fmt.Sprintf("head[%d] = (%d, %v), want (%d, %v)", k, a.headT[k], a.headW[k], b.headT[k], b.headW[k])
		}
	}
	if a.pendT != b.pendT || bits(a.pendW) != bits(b.pendW) || bits(a.lastGap) != bits(b.lastGap) {
		return fmt.Sprintf("pending (%d, %v) gap %v, want (%d, %v) gap %v", a.pendT, a.pendW, a.lastGap, b.pendT, b.pendW, b.lastGap)
	}
	if a.total != b.total || a.oo != b.oo || a.dups != b.dups || a.drops != b.drops || a.droppedRaw != b.droppedRaw {
		return fmt.Sprintf("counters total %d oo %d dups %d drops %d dropped %v, want %d %d %d %d %v",
			a.total, a.oo, a.dups, a.drops, a.droppedRaw, b.total, b.oo, b.dups, b.drops, b.droppedRaw)
	}
	if len(a.rolls) != len(b.rolls) {
		return fmt.Sprintf("%d rollups, want %d", len(a.rolls), len(b.rolls))
	}
	for k, r := range a.rolls {
		q := b.rolls[k]
		if r.start != q.start || len(r.buckets) != len(q.buckets) {
			return fmt.Sprintf("rollup %v: run [%d,+%d), want [%d,+%d)", r.width, r.start, len(r.buckets), q.start, len(q.buckets))
		}
		for j, x := range r.buckets {
			y := q.buckets[j]
			if bits(x.energyJ) != bits(y.energyJ) || bits(x.cover) != bits(y.cover) || bits(x.maxW) != bits(y.maxW) {
				return fmt.Sprintf("rollup %v bucket %d = %+v, want %+v", r.width, r.start+int64(j), x, y)
			}
		}
	}
	return ""
}

// dbDiff is seriesDiff over every node of two stores.
func dbDiff(a, b *DB) string {
	na, nb := a.Nodes(), b.Nodes()
	if len(na) != len(nb) {
		return fmt.Sprintf("nodes %v, want %v", na, nb)
	}
	for _, node := range na {
		x, y := a.shard(node).series[node], b.shard(node).series[node]
		if y == nil {
			return fmt.Sprintf("node %d missing from the twin", node)
		}
		if d := seriesDiff(x, y); d != "" {
			return fmt.Sprintf("node %d: %s", node, d)
		}
	}
	return ""
}

// runBatch is one AppendBatch call.
type runBatch struct {
	node   int
	t0, dt float64
	w      []float64
}

// adcWatts returns n watts on the pilot ADC's grid (12 bits over 3 kW)
// around level, a code or two apart.
func adcWatts(rng *rand.Rand, n int, level float64) []float64 {
	const lsb = 3000.0 / 4096
	c := math.Round(level / lsb)
	w := make([]float64, n)
	for i := range w {
		w[i] = (c + float64(rng.Intn(5)-2)) * lsb
	}
	return w
}

// TestAppendBatchMatchesAppend is the run path's differential: a store fed
// by AppendBatch and a twin fed the same samples by one Append each must
// hold the same state, bit for bit, after every batch. The odd widths
// 0.1 and 7 put bucket edges where the batch spans' binary fractions do
// not fall, and an edge at width 0.1 has seconds a float cannot hold.
func TestAppendBatchMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	uniform := func(node, n int, from, dt float64, count int, level float64) []runBatch {
		var bs []runBatch
		for k := 0; k < count; k++ {
			bs = append(bs, runBatch{node, from + float64(k*n)*dt, dt, adcWatts(rng, n, level)})
		}
		return bs
	}
	cat := func(parts ...[]runBatch) []runBatch {
		var out []runBatch
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		opts    Options
		batches []runBatch
	}{
		{"pilot-bulk 512 @ 1 kS/s", Options{}, cat(uniform(0, 512, 30, 1e-3, 6, 900), uniform(1, 512, 30, 1e-3, 6, 1400))},
		{"control-loop 60 @ 4 S/s", Options{}, uniform(0, 60, 0, 0.25, 40, 700)},
		{"fabric-1k 64 @ 50 S/s", Options{}, uniform(3, 64, 12.5, 0.02, 30, 1200)},
		{"straddle cs 8", Options{ChunkSize: 8}, uniform(0, 37, 1, 1e-3, 12, 500)},
		{"straddle cs 64", Options{ChunkSize: 64}, uniform(0, 100, 1, 0.01, 10, 500)},
		{"straddle cs 256", Options{ChunkSize: 256}, uniform(0, 300, 1, 1e-3, 8, 500)},
		{"odd widths", Options{ChunkSize: 64, Resolutions: []float64{0.1, 1, 7, 60}}, cat(
			uniform(0, 128, 16384.3, 1e-3, 6, 800), uniform(1, 60, -20.05, 0.25, 12, 800))},
		{"re-delivery", Options{ChunkSize: 64}, []runBatch{
			{0, 1, 1e-3, adcWatts(rng, 100, 600)},
			{0, 1.08, 1e-3, adcWatts(rng, 50, 650)},   // 20 duplicates, then 30 new
			{0, 1.1085, 1e-3, adcWatts(rng, 60, 700)}, // 20 inserts between samples, then 40 new
			{0, 1.05, 1e-3, adcWatts(rng, 150, 750)},  // too old, inserts, duplicates, then new across a seal
			{0, 0.9, 5e-4, adcWatts(rng, 100, 750)},   // before the first sample ever: too old once sealed
		}},
		{"re-delivery before the first seal", Options{}, []runBatch{
			{0, 5, 0.01, adcWatts(rng, 20, 600)},
			{0, 4.9, 0.005, adcWatts(rng, 80, 600)}, // opens before the first sample ever
		}},
		{"sub-tick dt", Options{ChunkSize: 8}, []runBatch{
			{0, 2, 3e-8, adcWatts(rng, 40, 500)}, // 0.3 ticks: each tick repeats
			{0, 2.0001, 1e-7, adcWatts(rng, 30, 500)},
			{0, 2.01, 0, adcWatts(rng, 5, 500)}, // one tick, five times
		}},
		{"negative times", Options{ChunkSize: 16}, uniform(2, 50, -1.3, 0.02, 8, 400)},
		{"retain raw", Options{ChunkSize: 8, RetainRaw: 0.005}, uniform(0, 53, 1, 1e-3, 10, 500)},
		{"retain raw, wider", Options{ChunkSize: 32, RetainRaw: 0.3}, uniform(0, 200, 1, 1e-3, 10, 500)},
		// Seals fall at samples 63, 95, ... and chunks start at multiples
		// of 32, so a horizon 319.5 samples back drops a chunk at the
		// sample after a seal, not at the seal: a seal made a sample late
		// drops one chunk too many.
		{"retain raw, seal-aligned", Options{ChunkSize: 32, RetainRaw: 0.3195}, uniform(0, 200, 1, 1e-3, 10, 500)},
		{"one-sample batches", Options{ChunkSize: 8}, uniform(0, 1, 3, 0.1, 40, 500)},
		{"glitch gap", Options{ChunkSize: 8}, []runBatch{
			{0, 1, 0.01, adcWatts(rng, 20, 500)},
			{0, 1e7, 0.01, adcWatts(rng, 20, 500)},
			{0, 1e7 + 0.2, 0.25, adcWatts(rng, 20, 500)},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, twin := New(tc.opts), New(tc.opts)
			for k, b := range tc.batches {
				db.AppendBatch(b.node, b.t0, b.dt, b.w)
				for i, w := range b.w {
					twin.Append(b.node, b.t0+float64(i)*b.dt, w)
				}
				if d := dbDiff(db, twin); d != "" {
					t.Fatalf("after batch %d (t0 %v, dt %v, %d samples): %s", k, b.t0, b.dt, len(b.w), d)
				}
			}
			if db.Stats() != twin.Stats() {
				t.Fatalf("Stats %+v, want %+v", db.Stats(), twin.Stats())
			}
		})
	}
}
