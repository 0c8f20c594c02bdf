package tsdb

import (
	"runtime"
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
