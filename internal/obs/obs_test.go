package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"davide/internal/wire"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c := r.CounterOf("a_total")
	c.Add(2)
	c.Inc()
	if c.Load() != 3 {
		t.Errorf("counter = %d, want 3", c.Load())
	}
	if r.CounterOf("a_total") != c {
		t.Error("re-registration must return the existing counter")
	}
	g := r.GaugeOf("g")
	g.Set(1.5)
	if g.Load() != 1.5 {
		t.Errorf("gauge = %v", g.Load())
	}
	r.CounterFunc("f_total", func() float64 { return 7 })
	r.GaugeFunc("hw", func() float64 { return 9 }, Volatile())

	snap := r.Snapshot(true)
	names := make([]string, len(snap))
	for i, m := range snap {
		names[i] = m.Name
	}
	want := []string{"a_total", "f_total", "g", "hw"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("snapshot order = %v, want %v", names, want)
	}
	det := r.Snapshot(false)
	for _, m := range det {
		if m.Name == "hw" {
			t.Error("volatile series must be excluded from deterministic snapshot")
		}
	}
	if len(det) != 3 {
		t.Errorf("deterministic snapshot has %d series, want 3", len(det))
	}

	defer func() {
		if recover() == nil {
			t.Error("kind conflict should panic")
		}
	}()
	r.GaugeOf("a_total")
}

func TestKey(t *testing.T) {
	if got := Key("x_total"); got != "x_total" {
		t.Errorf("Key = %q", got)
	}
	if got := Key("x_total", "rack", "r00", "stage", "encode"); got != `x_total{rack="r00",stage="encode"}` {
		t.Errorf("Key = %q", got)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.CounterOf(Key("c_total", "w", fmt.Sprint(i%4))).Inc()
				r.HistogramOf("h").Observe(int64(j))
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for _, m := range r.Snapshot(true) {
		if strings.HasPrefix(m.Name, "c_total") {
			total += int64(m.Value)
		}
	}
	if total != 800 {
		t.Errorf("counter total = %d, want 800", total)
	}
	if n := r.HistogramOf("h").Snapshot().N(); n != 800 {
		t.Errorf("histogram N = %d, want 800", n)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterOf(Key("b_total", "rack", "r00")).Add(5)
	h := r.HistogramOf(Key("lat_seconds", "rack", "r00"), Scale(0.5))
	h.Observe(0)
	h.Observe(3)
	h.Observe(3)
	out := r.Text(true)
	for _, want := range []string{
		"# TYPE b_total counter\n",
		"b_total{rack=\"r00\"} 5\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{rack="r00",le="0"} 1` + "\n",
		`lat_seconds_bucket{rack="r00",le="1.5"} 3` + "\n", // upper 3 * scale 0.5
		`lat_seconds_bucket{rack="r00",le="+Inf"} 3` + "\n",
		`lat_seconds_sum{rack="r00"} 3` + "\n", // (0+3+3) * 0.5
		`lat_seconds_count{rack="r00"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Deterministic: two renders of the same registry are identical.
	if out != r.Text(true) {
		t.Error("Text is not stable across renders")
	}
}

func TestStageTrace(t *testing.T) {
	r := NewRegistry()
	tr := NewStageTrace(r, 2)
	tr.SetRackOf(func(node int) int { return node % 2 })

	// In-order batches: zero lag.
	tr.Stamp(StageEncode, 0, 100)
	tr.Stamp(StageEncode, 0, 200)
	// Out-of-order: batch ending at 150 arrives behind the 200 frontier.
	tr.Stamp(StageEncode, 0, 150)
	h := r.HistogramOf(Key("davide_stage_lag_seconds", "stage", "encode", "rack", "r00")).Snapshot()
	if h.N() != 3 || h.Counts[0] != 2 {
		t.Errorf("encode lag: N=%d zeros=%d, want 3/2", h.N(), h.Counts[0])
	}
	if h.Sum != 50 {
		t.Errorf("encode lag sum = %v ticks, want 50", h.Sum)
	}
	// The batch counters are derived from the lag histograms at snapshot
	// time, so they are read back through a snapshot.
	snapValue := func(name string) float64 {
		t.Helper()
		for _, m := range r.Snapshot(true) {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("snapshot missing %s", name)
		return 0
	}
	if c := snapValue(Key("davide_stage_batches_total", "stage", "encode", "rack", "r00")); c != 3 {
		t.Errorf("encode batches = %v, want 3", c)
	}

	// Rack routing: node 1 lands in rack r01.
	tr.Stamp(StageDecode, 1, 10)
	if c := snapValue(Key("davide_stage_batches_total", "stage", "decode", "rack", "r01")); c != 1 {
		t.Errorf("decode rack r01 batches = %v, want 1", c)
	}

	// Commit stamps feed the e2e staleness histogram: frontier 500 vs
	// a batch spanning [250, 400] → staleness 250 ticks.
	tr.StampCommit(0, 100, 500)
	tr.StampCommit(0, 250, 400)
	e2e := r.HistogramOf(Key("davide_e2e_staleness_seconds", "rack", "r00")).Snapshot()
	if e2e.N() != 2 || e2e.Sum != 400+250 {
		t.Errorf("e2e: N=%d sum=%v, want 2/650", e2e.N(), e2e.Sum)
	}

	// BeginWindow resets frontiers: an old tick no longer counts as lag.
	tr.BeginWindow()
	tr.Stamp(StageEncode, 0, 50)
	h = r.HistogramOf(Key("davide_stage_lag_seconds", "stage", "encode", "rack", "r00")).Snapshot()
	if h.Counts[0] != 3 {
		t.Errorf("post-reset stamp should record zero lag, zeros=%d", h.Counts[0])
	}
}

func TestServeMetrics(t *testing.T) {
	r := NewRegistry()
	r.CounterOf("up_total").Inc()
	NewStageTrace(r, 1).Stamp(StageCommit, 0, wire.ToTick(1.0))
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(body), "up_total 1") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(string(body), `davide_stage_lag_seconds_bucket{stage="commit",rack="r00",le="0"} 1`) {
		t.Errorf("/metrics missing stage histogram:\n%s", body)
	}
	resp, err = http.Get("http://" + srv.Addr() + "/histograms")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(body), "p50=") {
		t.Errorf("/histograms missing quantiles:\n%s", body)
	}
}
