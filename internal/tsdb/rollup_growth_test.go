package tsdb

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestRollupGrowthIsLinear is the ageing guard. A dense run that grows one
// bucket at a time must allocate a small constant times its final size in
// total; an exact-sized reallocation per new bucket allocates N/2 times it
// (4.8 GB for the forward case below, three orders of magnitude past the
// bound). Checked in both directions and alternating between the ends,
// together with the capacity slack the geometric policy may leave behind.
func TestRollupGrowthIsLinear(t *testing.T) {
	const n = 20_000
	for _, tc := range []struct {
		name  string
		bound uint64 // total bytes allocated, in final-run sizes (n × 24 B)
		at    func(i int) float64
	}{
		{"forward", 8, func(i int) float64 { return float64(i) }},
		{"backward", 8, func(i int) float64 { return float64(-i) }},
		// Each end's reallocation costs the other its slack, so the
		// constant is larger; what matters is that it is one.
		{"alternating", 16, func(i int) float64 { return float64((i + 1) / 2 * (1 - 2*(i%2))) }}, // 0, -1, 1, -2, 2, ...
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &rollup{width: 1}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				t0 := tc.at(i)
				r.addRect(t0, t0+1, 400, true)
				// cap ≤ 2 × len, give or take the allocator's size-class
				// rounding (at most an eighth).
				if l := len(r.buckets); l > 64 && (cap(r.buckets) > 2*l+l/8 || len(r.spare) > l) {
					t.Fatalf("after %d buckets: cap %d, front headroom %d", l, cap(r.buckets), len(r.spare))
				}
			}
			runtime.ReadMemStats(&after)
			if len(r.buckets) != n || r.bytes() != n*24 {
				t.Fatalf("run holds %d buckets (%d B), want %d", len(r.buckets), r.bytes(), n)
			}
			if got, limit := after.TotalAlloc-before.TotalAlloc, tc.bound*n*24; got > limit {
				t.Errorf("growing to %d buckets allocated %d B, want <= %d B (%dx the final run): growth is not amortised",
					n, got, limit, tc.bound)
			}
		})
	}
}

// BenchmarkAppendAged is the control loop's write pattern against a store
// that is already two virtual hours old: per op, one 15-s tick of 4 S/s
// samples (a 60-sample batch) for each of 45 nodes. ns/sample must not
// depend on the store's age.
func BenchmarkAppendAged(b *testing.B) {
	const nodes, tickS, rate, agedTicks = 45, 15.0, 4.0, 480
	batch := make([]float64, int(tickS*rate))
	for i := range batch {
		batch[i] = 400
	}
	db := New(Options{})
	tick := func(i int) {
		for n := 0; n < nodes; n++ {
			db.AppendBatch(n, float64(i)*tickS, 1/rate, batch)
		}
	}
	for i := 0; i < agedTicks; i++ {
		tick(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(agedTicks + i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes*len(batch)), "ns/sample")
}

// BenchmarkAppendBatch is the store's ingest at the batch shapes of the
// benchmark's three streaming workloads: 512 samples at 1 kS/s for 45
// nodes (pilot-bulk), 60 at 4 S/s for 45 (control-loop) and 64 at 50 S/s
// for 1024 (fabric-1k). One op is one batch per node. The watts sit on the
// pilot ADC's grid (12 bits over 3 kW) with a code or two of noise, so the
// XOR stream, and with it the cost of a seal, is the plant's: constant
// watts would compress to a bit a sample.
func BenchmarkAppendBatch(b *testing.B) {
	for _, sh := range []struct {
		name     string
		nodes, n int
		rate     float64
	}{
		{"pilot-bulk", 45, 512, 1000},
		{"control-loop", 45, 60, 4},
		{"fabric-1k", 1024, 64, 50},
	} {
		b.Run(sh.name, func(b *testing.B) {
			const lsb = 3000.0 / 4096
			rng := rand.New(rand.NewSource(1))
			batches := make([][]float64, 16)
			for k := range batches {
				level := math.Round((300 + 1500*rng.Float64()) / lsb)
				batches[k] = make([]float64, sh.n)
				for i := range batches[k] {
					batches[k][i] = (level + float64(rng.Intn(5)-2)) * lsb
				}
			}
			db := New(Options{})
			span := float64(sh.n) / sh.rate
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for node := 0; node < sh.nodes; node++ {
					db.AppendBatch(node, float64(i)*span, 1/sh.rate, batches[(i+node)%len(batches)])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.nodes*sh.n), "ns/sample")
		})
	}
}

// TestRollupReadCostIsTheRun is the read-path cost contract: a query costs
// the buckets of the run inside the window, whatever the window. Bounds far
// outside the run — a dashboard asking for "everything", a hostile t1=1e300
// — must visit no more than the run and answer exactly what the tight
// window answers (looping over the query window's own bucket indices took
// seconds per 1e9 s under the shard read lock, and ±1e300 overflowed int64
// into an empty answer).
func TestRollupReadCostIsTheRun(t *testing.T) {
	db := New(Options{Resolutions: []float64{1, 60}})
	for i := 0; i <= 4000; i++ {
		db.Append(0, 30+float64(i)*0.25, 300+float64(i%17))
	}
	inf := math.Inf(1)
	for _, res := range []float64{1, 60} {
		// Bucket-aligned at both widths and past both ends of the run, so
		// no boundary bucket is pro-rated and == is the right comparison.
		wantE, err := db.EnergyAt(0, 0, 1080, res)
		if err != nil || wantE <= 0 {
			t.Fatalf("res %v: tight energy = %v, %v", res, wantE, err)
		}
		wantP, _ := db.Fetch(0, 0, 1080, res)
		// The widest windows the store answers: it refuses infinite bounds
		// (TestNonFiniteWindowRefused), the rollup below takes them.
		for _, w := range [][2]float64{{0, 1e9}, {-1e300, 1e300}, {0, math.MaxFloat64}, {-math.MaxFloat64, math.MaxFloat64}, {-4e18, 4e18}} {
			gotE, err := db.EnergyAt(0, w[0], w[1], res)
			if err != nil || gotE != wantE {
				t.Errorf("res %v window %v: energy = %v (%v), want %v", res, w, gotE, err, wantE)
			}
			gotP, err := db.Fetch(0, w[0], w[1], res)
			if err != nil || !slices.Equal(gotP, wantP) {
				t.Errorf("res %v window %v: %d points (%v), want the run's %d", res, w, len(gotP), err, len(wantP))
			}
		}
	}
	// The iteration count itself, on the rollup: never more than the run,
	// and nothing for a window that misses it.
	r := &rollup{width: 1}
	r.addRect(100, 200, 400, true)
	for _, w := range [][2]float64{{0, 1e9}, {-1e300, 1e300}, {-inf, inf}, {150, 1e300}, {-1e300, 150}} {
		first, last := r.overlap(w[0], w[1])
		if first < r.start || last >= r.start+int64(len(r.buckets)) || last < first {
			t.Errorf("overlap%v = [%d, %d], want within the run [%d, %d)", w, first, last, r.start, r.start+int64(len(r.buckets)))
		}
	}
	for _, w := range [][2]float64{{-1e300, 99}, {200, 1e300}, {inf, inf}, {5, 5}, {1e300, -1e300}} {
		if first, last := r.overlap(w[0], w[1]); last >= first {
			t.Errorf("overlap%v = [%d, %d], want empty", w, first, last)
		}
	}
}
