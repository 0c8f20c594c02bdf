package davide

// BenchmarkE23APIQueries is the query-service throughput bound
// (DESIGN.md §11): cached hot-window reads must sustain >= 100k
// queries/s through the full HTTP stack (mux, tenant quota accounting,
// cache, metrics) at 1 and at 16 tenants. The benchmark fails itself;
// there is no baseline file. Mixed and cold query latency is measured by
// the query-mix workload of bench/.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"davide/internal/energyserve"
	"davide/internal/obs"
)

// lightRW is the load generator's ResponseWriter: it counts bytes
// instead of buffering them, so the measured path is the service, not
// the recorder. One per worker goroutine, reset between queries.
type lightRW struct {
	h    http.Header
	code int
	n    int64
}

func newLightRW() *lightRW             { return &lightRW{h: make(http.Header, 4), code: http.StatusOK} }
func (w *lightRW) Header() http.Header { return w.h }
func (w *lightRW) WriteHeader(c int)   { w.code = c }
func (w *lightRW) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
func (w *lightRW) reset() { w.code = http.StatusOK; w.n = 0 }

func BenchmarkE23APIQueries(b *testing.B) {
	const (
		workers   = 8
		perWorker = 2000
		hotNodes  = 4
	)
	for _, tenants := range []int{1, 16} {
		b.Run(fmt.Sprintf("hot/tenants=%d", tenants), func(b *testing.B) {
			srv := e23Server(b, energyserve.Options{
				// Quota accounting stays on the hot path (per-tenant
				// buckets engaged) but never rejects.
				QuotaRate: 1e9,
				Obs:       obs.NewRegistry(),
			})

			// Per-worker hot request set: four nodes, one fixed window
			// each, reused sequentially (never shared across workers).
			hot := make([][]*http.Request, workers)
			for w := 0; w < workers; w++ {
				tenant := fmt.Sprintf("t%02d", w%tenants)
				for n := 0; n < hotNodes; n++ {
					req := httptest.NewRequest(http.MethodGet,
						fmt.Sprintf("/v1/nodes/%d/window?t0=0&t1=240&res=1", n), nil)
					req.Header.Set("X-Tenant", tenant)
					hot[w] = append(hot[w], req)
				}
			}
			// Warm the cache once so the loop measures the hit path.
			warm := newLightRW()
			for _, req := range hot[0] {
				warm.reset()
				srv.Handler().ServeHTTP(warm, req)
				if warm.code != http.StatusOK {
					b.Fatalf("warmup status %d", warm.code)
				}
			}

			var bad atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						rw := newLightRW()
						for q := 0; q < perWorker; q++ {
							rw.reset()
							srv.Handler().ServeHTTP(rw, hot[w][q%hotNodes])
							if rw.code != http.StatusOK {
								bad.Add(1)
							}
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			if n := bad.Load(); n != 0 {
				b.Fatalf("%d queries failed", n)
			}
			qps := float64(b.N) * workers * perWorker / b.Elapsed().Seconds()
			if qps < 100_000 {
				b.Errorf("cached hot-window reads sustained %.0f queries/s, below the 100k floor", qps)
			}
			b.ReportMetric(qps, "queries/s")
		})
	}
}
