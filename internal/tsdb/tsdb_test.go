package tsdb

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := map[string]func(i int) (int64, float64){
		"uniform-const":  func(i int) (int64, float64) { return int64(i) * 200000, 420 },
		"uniform-steps":  func(i int) (int64, float64) { return int64(i) * 200000, float64(360 + 200*(i/50)) },
		"jittered-noisy": func(i int) (int64, float64) { return int64(i)*200000 + int64(rng.Intn(7)), 1500 + rng.Float64()*10 },
	}
	for name, gen := range cases {
		t.Run(name, func(t *testing.T) {
			var ticks []int64
			var watts []float64
			last := int64(-1)
			for i := 0; i < 500; i++ {
				tk, w := gen(i)
				if tk <= last {
					tk = last + 1
				}
				last = tk
				ticks = append(ticks, tk)
				watts = append(watts, w)
			}
			data := encodeChunk(ticks, watts)
			i := 0
			err := decodeChunk(data, len(ticks), func(tk int64, w float64) bool {
				if tk != ticks[i] || w != watts[i] {
					t.Fatalf("sample %d: got (%d,%v) want (%d,%v)", i, tk, w, ticks[i], watts[i])
				}
				i++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != len(ticks) {
				t.Fatalf("decoded %d of %d samples", i, len(ticks))
			}
		})
	}
}

// naiveEnergy is the reference left-rectangle integral over sorted
// (t, w) pairs: sample i spans to its successor, the last spans the
// final gap.
func naiveEnergy(ts, ws []float64, t0, t1 float64) float64 {
	n := len(ts)
	e := 0.0
	for i := 0; i < n; i++ {
		hi := 0.0
		if i+1 < n {
			hi = ts[i+1]
		} else {
			hi = ts[i] + (ts[n-1] - ts[n-2])
		}
		lo := ts[i]
		if lo < t0 {
			lo = t0
		}
		if hi > t1 {
			hi = t1
		}
		if hi > lo {
			e += ws[i] * (hi - lo)
		}
	}
	return e
}

// buildSeries ingests a non-uniform series and returns the sorted raw data.
func buildSeries(db *DB, node, n int, seed int64) (ts, ws []float64) {
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	level := 400.0
	for i := 0; i < n; i++ {
		t += 0.01 + rng.Float64()*0.05 // non-uniform rate
		if rng.Intn(40) == 0 {
			level = 360 + rng.Float64()*1200
		}
		ts = append(ts, float64(toTick(t))/tickHz) // quantised, like the store
		ws = append(ws, level)
		db.Append(node, t, level)
	}
	return ts, ws
}

func TestEnergyMatchesNaiveReference(t *testing.T) {
	db := New(Options{ChunkSize: 64})
	ts, ws := buildSeries(db, 7, 2000, 3)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		a := rng.Float64() * ts[len(ts)-1]
		b := a + rng.Float64()*(ts[len(ts)-1]-a)
		want := naiveEnergy(ts, ws, a, b)
		got, err := db.Energy(7, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("trial %d [%v,%v]: got %v want %v", trial, a, b, got, want)
		}
	}
	// Whole-series query exercises the prefix-sum fast path end to end.
	want := naiveEnergy(ts, ws, 0, ts[len(ts)-1]+1)
	got, err := db.Energy(7, 0, ts[len(ts)-1]+1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("full window: got %v want %v", got, want)
	}
}

func TestQueryErrors(t *testing.T) {
	db := New(Options{})
	if _, err := db.Energy(1, 0, 1); err == nil {
		t.Error("unknown node should error")
	}
	db.Append(1, 0, 100)
	if _, err := db.Energy(1, 0, 1); err == nil {
		t.Error("single-sample series should error")
	}
	db.Append(1, 1, 100)
	if _, err := db.Energy(1, 2, 1); err == nil {
		t.Error("reversed window should error")
	}
	if e, err := db.Energy(1, 1, 1); err != nil || e != 0 {
		t.Errorf("empty window = %v, %v; want 0, nil", e, err)
	}
	if _, err := db.MeanPower(1, 1, 1); err == nil {
		t.Error("zero-length mean should error")
	}
	if _, err := db.Fetch(1, 0, 1, 7); err == nil {
		t.Error("unmaintained resolution should error")
	}
	if _, err := db.Fetch(9, 0, 1, 1); err == nil {
		t.Error("fetch unknown node should error")
	}
}

func TestOutOfOrderAndDuplicates(t *testing.T) {
	// In-order reference.
	ref := New(Options{ChunkSize: 32})
	for i := 0; i < 100; i++ {
		ref.AppendBatch(0, float64(i*4), 1, []float64{100, 200, 300, 400})
	}
	// Shuffled within batches + full duplicate redelivery.
	db := New(Options{ChunkSize: 32})
	db.AppendBatch(0, 0, 1, []float64{100, 200, 300, 400})
	for i := 1; i < 100; i++ {
		db.AppendBatch(0, float64(i*4), 1, []float64{100, 200, 300, 400})
		// Redeliver the previous batch (QoS-0 replay): duplicates only.
		db.AppendBatch(0, float64((i-1)*4), 1, []float64{100, 200, 300, 400})
	}
	for _, win := range [][2]float64{{0, 400}, {3.5, 201}, {17, 42.25}} {
		want, err := ref.Energy(0, win[0], win[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Energy(0, win[0], win[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("window %v: got %v want %v", win, got, want)
		}
	}
	st := db.Stats()
	if st.Duplicates == 0 && st.OutOfOrderDropped == 0 {
		t.Error("redelivery should be visible in stats")
	}
	if st.Samples != ref.Stats().Samples {
		t.Errorf("retained %d samples, want %d", st.Samples, ref.Stats().Samples)
	}

	// Interleaved single-sample reordering inside one head window.
	oo := New(Options{ChunkSize: 256})
	oo.Append(2, 0, 100)
	oo.Append(2, 2, 300)
	oo.Append(2, 1, 200) // arrives late, lands between
	oo.Append(2, 3, 400)
	want := 100*1.0 + 200*1.0 + 300*1.0 + 400*1.0 // last spans the 1 s gap
	got, err := oo.Energy(2, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("reordered energy = %v, want %v", got, want)
	}

	// The head window rolls: sealing keeps the newest ChunkSize samples
	// open, so even immediately after a seal a sample up to ChunkSize
	// positions behind the newest must still place — the tolerance
	// never resets to zero.
	roll := New(Options{ChunkSize: 8})
	for i := 0; i < 64; i++ {
		roll.Append(4, float64(i), 100)
	}
	roll.Append(4, 56.5, 100) // 7.5 samples behind the newest: in-window
	if st := roll.Stats(); st.OutOfOrderDropped != 0 {
		t.Errorf("rolling head window dropped an in-tolerance sample (oo=%d)", st.OutOfOrderDropped)
	}

	// Samples behind the sealed horizon are dropped and counted.
	tiny := New(Options{ChunkSize: 4})
	for i := 0; i < 8; i++ {
		tiny.Append(3, float64(i), 100)
	}
	tiny.Append(3, 0.5, 9999)
	if st := tiny.Stats(); st.OutOfOrderDropped != 1 {
		t.Errorf("OutOfOrderDropped = %d, want 1", st.OutOfOrderDropped)
	}
	got, err = tiny.Energy(3, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-400) > 1e-9 {
		t.Errorf("energy after dropped late sample = %v, want 400", got)
	}
}

// TestRollupAgreementProperty is the documented accuracy contract: for
// windows inside the ingested range, the rollup integral deviates from
// the raw integral by at most res × the peak power per window boundary.
func TestRollupAgreementProperty(t *testing.T) {
	db := New(Options{ChunkSize: 128, Resolutions: []float64{1, 60}})
	ts, ws := buildSeries(db, 11, 5000, 5)
	last := ts[len(ts)-1]
	maxW := slices.Max(ws)
	rng := rand.New(rand.NewSource(6))
	for _, res := range []float64{1, 60} {
		bound := 2*res*maxW + 1e-6
		for trial := 0; trial < 100; trial++ {
			a := rng.Float64() * last
			b := a + rng.Float64()*(last-a)
			raw, err := db.Energy(11, a, b)
			if err != nil {
				t.Fatal(err)
			}
			rolled, err := db.EnergyAt(11, a, b, res)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(raw-rolled) > bound {
				t.Fatalf("res %g trial %d [%v,%v]: raw %v rollup %v (bound %v)",
					res, trial, a, b, raw, rolled, bound)
			}
		}
	}
}

func TestRetentionKeepsRollups(t *testing.T) {
	db := New(Options{ChunkSize: 100, Resolutions: []float64{1, 60}})
	// 1000 s at 10 Hz, constant 500 W.
	for i := 0; i < 10000; i++ {
		db.Append(4, float64(i)*0.1, 500)
	}
	before := db.Stats()
	dropped := db.DropRawBefore(600)
	if dropped == 0 {
		t.Fatal("expected chunks to be dropped")
	}
	after := db.Stats()
	if after.Samples >= before.Samples || after.CompressedBytes >= before.CompressedBytes {
		t.Errorf("retention did not shrink: %+v -> %+v", before, after)
	}
	// Recent range still answers exactly from raw chunks.
	got, err := db.Energy(4, 700, 900)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-500*200) > 1e-6 {
		t.Errorf("raw-range energy = %v, want 100000", got)
	}
	// The dropped range falls back to rollups within the resolution bound.
	got, err = db.Energy(4, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-500*200) > 2*1*500 {
		t.Errorf("rollup-range energy = %v, want 100000±1000", got)
	}
	// A window straddling the horizon combines both.
	got, err = db.Energy(4, 500, 800)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-500*300) > 2*1*500 {
		t.Errorf("straddling energy = %v, want 150000±1000", got)
	}

	// Automatic retention via Options.
	auto := New(Options{ChunkSize: 100, RetainRaw: 50})
	for i := 0; i < 10000; i++ {
		auto.Append(0, float64(i)*0.1, 500)
	}
	if st := auto.Stats(); st.Samples > 1000 {
		t.Errorf("auto-retention kept %d raw samples for a 50 s horizon at 10 Hz", st.Samples)
	}
	if _, err := auto.Energy(0, 900, 999); err != nil {
		t.Errorf("recent window after auto-retention: %v", err)
	}
}

func TestFetchRawAndRollup(t *testing.T) {
	db := New(Options{ChunkSize: 16})
	for i := 0; i < 100; i++ {
		w := 100.0
		if i >= 40 && i < 60 {
			w = 900
		}
		db.Append(6, float64(i), w)
	}
	pts, err := db.Fetch(6, 0, 100, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("Fetch(60s) returned %d points, want 2", len(pts))
	}
	if pts[0].MaxW != 900 || pts[0].MeanW <= 100 || pts[0].MeanW >= 900 {
		t.Errorf("bucket 0 = %+v", pts[0])
	}
	raw, err := db.Fetch(6, 10, 20, 0)
	if err != nil || len(raw) != 11 {
		t.Fatalf("raw fetch = %d points, %v; want 11", len(raw), err)
	}
}

// TestCompressionRatio pins the E16 claim at unit-test granularity: a
// gateway-like stream (uniform rate, ADC-quantised piecewise-constant
// watts) must compress to at least 5x fewer bytes per sample than the
// 16 B of flat time/power float64 slices.
func TestCompressionRatio(t *testing.T) {
	db := New(Options{})
	rng := rand.New(rand.NewSource(9))
	const fs, codes = 5000.0, 4096.0
	level := 1200.0
	for i := 0; i < 200000; i++ {
		if rng.Intn(500) == 0 {
			level = 360 + rng.Float64()*2000
		}
		q := math.Round(level/fs*codes) / codes * fs
		db.Append(0, float64(i)*0.02, q)
	}
	st := db.Stats()
	if st.BytesPerSample <= 0 || st.BytesPerSample > 16.0/5 {
		t.Errorf("BytesPerSample = %.3f, need <= %.3f for the 5x claim", st.BytesPerSample, 16.0/5)
	}
	if st.Chunks == 0 || st.Samples != 200000 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNodesAndSamples(t *testing.T) {
	db := New(Options{Shards: 16})
	db.Append(3, 0, 1)
	db.Append(19, 0, 1) // same shard as 3: exercises map, not slot, identity
	db.Append(5, 0, 1)
	nodes := db.Nodes()
	if len(nodes) != 3 || nodes[0] != 3 || nodes[1] != 5 || nodes[2] != 19 {
		t.Errorf("Nodes = %v", nodes)
	}
	if db.IngestedSamples(3) != 1 || db.IngestedSamples(99) != 0 {
		t.Errorf("IngestedSamples = %d/%d", db.IngestedSamples(3), db.IngestedSamples(99))
	}
}

// TestGlitchGapDoesNotExplodeRollups: a clock-glitched far-future sample
// must not materialise billions of dense rollup buckets (it would hang
// ingest while holding the shard lock). The pathological rectangle is
// skipped; raw data stays exact.
func TestGlitchGapDoesNotExplodeRollups(t *testing.T) {
	db := New(Options{})
	db.Append(0, 0, 100)
	db.Append(0, 1, 100)
	db.Append(0, 1e9, 100) // glitch: ~1e9 one-second buckets if materialised
	done := make(chan struct{})
	go func() {
		db.Append(0, 1e9+1, 100)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ingest hung materialising a glitch gap")
	}
	if st := db.Stats(); st.RollupBytes > 1<<24 {
		t.Fatalf("glitch allocated %d rollup bytes", st.RollupBytes)
	}
	e, err := db.Energy(0, 0, 2)
	if err != nil || math.Abs(e-200) > 1e-9 {
		t.Errorf("raw energy around glitch = %v, %v; want 200", e, err)
	}
}

// TestShardSizing pins the stripe-count rule: auto mode follows
// GOMAXPROCS (power of two, ≥ MinShards), explicit requests round up to
// a power of two and clamp to MaxShards, and routing stays correct for
// node IDs far beyond the stripe count (mask, not identity).
func TestShardSizing(t *testing.T) {
	auto := New(Options{})
	want := 4 * runtime.GOMAXPROCS(0)
	if want < MinShards {
		want = MinShards
	}
	if n := auto.Shards(); n < want || n&(n-1) != 0 {
		t.Errorf("auto shards = %d, want power of two >= %d", n, want)
	}
	for req, want := range map[int]int{1: 1, 3: 4, 16: 16, 17: 32, 1 << 20: MaxShards} {
		if got := New(Options{Shards: req}).Shards(); got != want {
			t.Errorf("Shards %d -> %d, want %d", req, got, want)
		}
	}
	db := New(Options{Shards: 4})
	for _, node := range []int{0, 3, 4, 1027, -9, 1 << 30} {
		db.Append(node, 0, 50)
		db.Append(node, 1, 50)
		if e, err := db.Energy(node, 0, 1); err != nil || math.Abs(e-50) > 1e-9 {
			t.Errorf("node %d energy = %v, %v; want 50", node, e, err)
		}
	}
	if n := len(db.Nodes()); n != 6 {
		t.Errorf("retained %d nodes, want 6", n)
	}
}

// TestOptionsDoNotAliasCallerSlice: New must not sort the caller's
// Resolutions in place nor retain its backing array.
func TestOptionsDoNotAliasCallerSlice(t *testing.T) {
	res := []float64{60, 1}
	db := New(Options{Resolutions: res})
	if res[0] != 60 || res[1] != 1 {
		t.Errorf("caller slice reordered: %v", res)
	}
	res[0] = 7 // caller reuses its slice; store config must not change
	got := db.Resolutions()
	if got[0] != 1 || got[1] != 60 {
		t.Errorf("store resolutions = %v, want [1 60]", got)
	}
}

// TestRollupWindowStopsBeforeT1: a rollup window [t0, t1) lists exactly
// the buckets that start before t1, at any magnitude of t1. Past
// t1 = 16384 s, t1 - 1e-12 rounds back to t1, so a guard built on it also
// listed the bucket starting at t1. That bucket adds +0 J, so the energy
// stays the sum of the listed points.
func TestRollupWindowStopsBeforeT1(t *testing.T) {
	db := New(Options{})
	for ts := 16000.0; ts <= 24700; ts++ {
		db.Append(0, ts, 360+math.Mod(ts, 7))
	}
	for _, c := range []struct {
		t1, res float64
		want    int
	}{
		{16384, 1, 10},
		{16385, 1, 10},
		{20000, 1, 10},
		{16200, 60, 3},
		{24000, 60, 10},
	} {
		t0 := c.t1 - float64(c.want)*c.res
		pts, err := db.Fetch(0, t0, c.t1, c.res)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != c.want {
			t.Errorf("Fetch(%v, %v, res %v): %d buckets, want %d", t0, c.t1, c.res, len(pts), c.want)
			continue
		}
		if last := pts[len(pts)-1]; last.T1 != c.t1 {
			t.Errorf("Fetch(%v, %v, res %v): last bucket [%v, %v)", t0, c.t1, c.res, last.T0, last.T1)
		}
		e, err := db.EnergyAt(0, t0, c.t1, c.res)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range pts {
			sum += p.EnergyJ
		}
		if math.Float64bits(e) != math.Float64bits(sum) {
			t.Errorf("EnergyAt(%v, %v, res %v) = %v, its points sum to %v", t0, c.t1, c.res, e, sum)
		}
	}
}
