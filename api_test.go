package davide

// E23 — the query-service experiment: the multi-tenant energy API served
// over a completed live replay, driven by a closed-loop load generator.
// Asserted invariants:
//
//   - throughput: cached hot-window reads sustain >= 100k queries/s
//     through the full HTTP stack (mux, tenant quota accounting, cache,
//     metrics) — the paper's "account for everything, continuously"
//     stance is only tenable if interrogating the accounting is cheap;
//   - coherence: a cached answer is bit-identical to the uncached
//     (nocache=1) answer for the same window — the cache may only ever
//     change latency, never bytes (DESIGN.md §11);
//   - isolation: per-tenant token-bucket rejects are exact — burst
//     tokens admit, everything past them 429s with a Retry-After hint,
//     and refill restores precisely rate*dt tokens;
//   - liveness: the service binds mid-run via LiveConfig.OnPlant and
//     answers while the replay is still ingesting, race-clean.
//
// TestE23APIService is the property suite; BenchmarkE23APIQueries
// (api_bench_test.go) holds the throughput floor.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"davide/internal/core"
	"davide/internal/energyserve"
	"davide/internal/sched"
)

// e23Replay runs one small closed-loop replay (E19 geometry, 8 jobs)
// exactly once and keeps its plant — store, ledger, assignments — for
// every E23 server to front. The replay is finished by the time queries
// run, so cached windows stay valid unless a test ingests more itself.
var (
	e23Once  sync.Once
	e23Plant core.LivePlant
	e23Err   error
)

func e23Replay(tb testing.TB) core.LivePlant {
	tb.Helper()
	e23Once.Do(func() {
		train, work := e19Workload(tb, 7)
		work = work[:8]
		sys, err := core.NewSystem(train)
		if err != nil {
			e23Err = err
			return
		}
		_, err = sys.RunLive(work, core.LiveConfig{
			Nodes:      e19Nodes,
			SampleRate: 4,
			RackSize:   6,
			Sched: sched.ControllerConfig{
				Admission: sched.AdmitPowerAware,
				Config:    sched.Config{PowerCapW: e19CapW, ReactiveCapping: true},
				TickS:     e19Tick,
			},
			OnPlant: func(p core.LivePlant) { e23Plant = p },
		})
		if err != nil {
			e23Err = err
		}
	})
	if e23Err != nil {
		tb.Fatal(e23Err)
	}
	if e23Plant.Store == nil {
		tb.Fatal("replay handed over no plant")
	}
	return e23Plant
}

// e23Server fronts the shared replay plant with a fresh service (fresh
// cache, fresh quota buckets).
func e23Server(tb testing.TB, opts energyserve.Options) *energyserve.Server {
	tb.Helper()
	p := e23Replay(tb)
	s := energyserve.NewServer(opts)
	s.Bind(energyserve.Backend{
		Store:       p.Store,
		Ledger:      p.Ledger,
		Assignments: p.Assignments,
		Nodes:       p.Nodes,
		RackSize:    p.RackSize,
	})
	return s
}

func TestE23APIService(t *testing.T) {
	if testing.Short() {
		t.Skip("query-service suite: skipped in -short")
	}

	get := func(t *testing.T, s *energyserve.Server, tenant, path string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}

	t.Run("cached-vs-uncached-bit-identical", func(t *testing.T) {
		srv := e23Server(t, energyserve.Options{})
		windows := []struct{ t0, t1, res float64 }{
			{0, 240, 1},
			{0, 240, 60},
			{10, 50, 0},
			{5, 123.5, 1},
		}
		for node := 0; node < 4; node++ {
			for _, w := range windows {
				path := fmt.Sprintf("/v1/nodes/%d/window?t0=%s&t1=%s&res=%s", node,
					strconv.FormatFloat(w.t0, 'g', -1, 64),
					strconv.FormatFloat(w.t1, 'g', -1, 64),
					strconv.FormatFloat(w.res, 'g', -1, 64))
				miss := get(t, srv, "", path)
				hit := get(t, srv, "", path)
				bypass := get(t, srv, "", path+"&nocache=1")
				if miss.Code != 200 || hit.Code != 200 || bypass.Code != 200 {
					t.Fatalf("%s: codes %d/%d/%d", path, miss.Code, hit.Code, bypass.Code)
				}
				if miss.Header().Get("X-Cache") != "miss" || hit.Header().Get("X-Cache") != "hit" ||
					bypass.Header().Get("X-Cache") != "bypass" {
					t.Fatalf("%s: X-Cache %q/%q/%q, want miss/hit/bypass", path,
						miss.Header().Get("X-Cache"), hit.Header().Get("X-Cache"), bypass.Header().Get("X-Cache"))
				}
				if !bytes.Equal(miss.Body.Bytes(), hit.Body.Bytes()) {
					t.Errorf("%s: cached answer differs from the miss that filled it", path)
				}
				if !bytes.Equal(hit.Body.Bytes(), bypass.Body.Bytes()) {
					t.Errorf("%s: cached answer differs from the uncached recompute", path)
				}
			}
		}
	})

	t.Run("quota-rejects-exact", func(t *testing.T) {
		now := 1000.0
		srv := e23Server(t, energyserve.Options{
			QuotaRate:  10,
			QuotaBurst: 5,
			Now:        func() float64 { return now },
		})
		issue := func(tenant string, n int) (ok, rejected int) {
			for i := 0; i < n; i++ {
				rec := get(t, srv, tenant, "/v1/users")
				switch rec.Code {
				case http.StatusOK:
					ok++
				case http.StatusTooManyRequests:
					rejected++
					ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
					if err != nil || ra < 1 {
						t.Fatalf("429 Retry-After = %q, want integer >= 1", rec.Header().Get("Retry-After"))
					}
				default:
					t.Fatalf("unexpected status %d", rec.Code)
				}
			}
			return ok, rejected
		}
		// Frozen clock: exactly burst tokens admit, per tenant.
		if ok, rej := issue("alice", 20); ok != 5 || rej != 15 {
			t.Errorf("alice: %d ok / %d rejected, want 5/15", ok, rej)
		}
		if ok, rej := issue("bob", 7); ok != 5 || rej != 2 {
			t.Errorf("bob: %d ok / %d rejected, want 5/2 — tenants must not share buckets", ok, rej)
		}
		// Refill is exact: 0.5 s at 10 req/s restores 5 tokens.
		now += 0.5
		if ok, rej := issue("alice", 7); ok != 5 || rej != 2 {
			t.Errorf("alice after refill: %d ok / %d rejected, want 5/2", ok, rej)
		}
	})

	t.Run("live-serving", func(t *testing.T) {
		srv := energyserve.NewServer(energyserve.Options{})
		var served, early atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		paths := []string{"/v1/users", "/v1/nodes/0/window?t0=0&t1=60&res=1", "/v1/racks/0/power"}
		for w := 0; w < 4; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					case <-time.After(500 * time.Microsecond):
						// Paced, not saturating: the point is concurrent
						// serving during ingest, not starving the replay.
					}
					req := httptest.NewRequest(http.MethodGet, paths[(w+i)%len(paths)], nil)
					rec := httptest.NewRecorder()
					srv.Handler().ServeHTTP(rec, req)
					switch rec.Code {
					case http.StatusOK:
						served.Add(1)
					case http.StatusServiceUnavailable:
						early.Add(1) // before OnPlant bound the backend
					case http.StatusNotFound:
						// rack query before any telemetry landed
					default:
						t.Errorf("unexpected status %d for %s", rec.Code, paths[(w+i)%len(paths)])
						return
					}
				}
			}()
		}
		train, work := e19Workload(t, 11)
		work = work[:6]
		sys, err := core.NewSystem(train)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.RunLive(work, core.LiveConfig{
			Nodes:      e19Nodes,
			SampleRate: 4,
			RackSize:   6,
			Sched: sched.ControllerConfig{
				Admission: sched.AdmitPowerAware,
				Config:    sched.Config{PowerCapW: e19CapW, ReactiveCapping: true},
				TickS:     e19Tick,
			},
			OnPlant: func(p core.LivePlant) {
				srv.Bind(energyserve.Backend{
					Store:       p.Store,
					Ledger:      p.Ledger,
					Assignments: p.Assignments,
					Nodes:       p.Nodes,
					RackSize:    p.RackSize,
				})
			},
		})
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if served.Load() == 0 {
			t.Error("no query was answered while the replay ran")
		}
	})
}
