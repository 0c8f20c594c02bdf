package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"davide/internal/core"
	"davide/internal/energyserve"
	"davide/internal/tsdb"
)

// The query-mix workload puts reads beside writes on one store. Set-up
// runs a closed loop to fill a store and a ledger and binds the query
// service to them; then one closed-loop client drives the service's
// handler directly (no sockets) with a seeded mix of hot, cold, live and
// ledger requests, while one open-loop writer appends a virtual second of
// samples for every node each 5 ms of wall time. A cache or index that
// speeds reads at the cost of appends, or the reverse, shows in one run.
const (
	queryJobs     = 32     // jobs of the closed loop that fills the store
	fillSeed      = 1      // the store is the same for every seed; the seed draws the traffic
	queryRequests = 60_000 // requests per round
	queryBlock    = 1_000  // requests per operation: one block of the mix, back to back
	writeEvery    = 5 * time.Millisecond
	verifyEvery   = 100 // one request in this many is byte-compared with nocache=1
)

var queryMixDef = workloadDef{
	name: "query-mix",
	sizes: fmt.Sprintf("fill jobs=%d nodes=%d requests/round=%d mix=60%%hot(%d keys)/20%%cold/10%%live/10%%ledger writer=1 batch/node/%v",
		queryJobs, controlNodes, queryRequests, hotKeys, writeEvery),
	tailPct: 95,
	run:     runQueryMix,
}

// countingWriter is the client's ResponseWriter: it counts bytes instead
// of buffering them, so the measured path is the service, not a recorder.
type countingWriter struct {
	h    http.Header
	code int
	n    int64
}

func newCountingWriter() *countingWriter {
	return &countingWriter{h: make(http.Header, 4), code: http.StatusOK}
}
func (w *countingWriter) Header() http.Header { return w.h }
func (w *countingWriter) WriteHeader(c int)   { w.code = c }
func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
func (w *countingWriter) reset() {
	w.code, w.n = http.StatusOK, 0
	delete(w.h, "X-Cache")
}

// fetch issues one request and returns the status and body, for warming
// the cache and for the cached-versus-uncached comparison.
func fetch(h http.Handler, path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return 0, nil, err
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes(), nil
}

// writer is the open-loop ingest beside the queries: every writeEvery of
// wall time the next virtual second of samples for every node, whether
// or not the previous write has finished on time. Each write is timed
// from when it was due, so a stall shows in the writes queued behind it.
type writer struct {
	samples [][]float64   // per node: one second of samples
	nowS    atomic.Uint64 // float64 bits: virtual time appended up to

	stop chan struct{}
	done sync.WaitGroup

	writeStats // owned by the writer goroutine until close returns
}

// writeStats is what a writer measured; add folds in another round's.
type writeStats struct {
	writeUS  []float64 // due time to AppendBatch return, per write
	lateMax  time.Duration
	appends  int64         // samples appended
	appendIn time.Duration // time inside AppendBatch
}

func (a *writeStats) add(b writeStats) {
	a.writeUS = append(a.writeUS, b.writeUS...)
	a.lateMax = max(a.lateMax, b.lateMax)
	a.appends += b.appends
	a.appendIn += b.appendIn
}

func startWriter(db *tsdb.DB, baseS float64, seed int64, tr *tracer) *writer {
	w := &writer{samples: writerSamples(seed, controlNodes), stop: make(chan struct{})}
	w.nowS.Store(math.Float64bits(baseS))
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		start := time.Now()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * writeEvery)
			select {
			case <-w.stop:
				return
			case <-time.After(time.Until(due)):
			}
			w.lateMax = max(w.lateMax, time.Since(due))
			id := tr.begin("tsdb.DB.AppendBatch", 0, int64(k))
			t, began := baseS+float64(k), time.Now()
			for node, s := range w.samples {
				db.AppendBatch(node, t, 1/float64(controlRate), s)
				w.appends += int64(len(s))
			}
			w.appendIn += time.Since(began)
			tr.end(id)
			w.writeUS = append(w.writeUS, us(time.Since(due)))
			w.nowS.Store(math.Float64bits(t + 1))
		}
	}()
	return w
}

// now is the virtual time up to which the writer has appended.
func (w *writer) now() float64 { return math.Float64frombits(w.nowS.Load()) }

func (w *writer) close() {
	close(w.stop)
	w.done.Wait()
}

// jobIDs returns the IDs of the jobs a run assigned nodes to, ascending.
func jobIDs(assignments map[int][]int) []int {
	ids := make([]int, 0, len(assignments))
	for id := range assignments {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// spanNames are the per-class request span names.
var spanNames = func() (n [numClasses]string) {
	for c, name := range classNames {
		n[c] = "energyserve.ServeHTTP." + name
	}
	return n
}()

func runQueryMix(r *run) error {
	classUS := make([][]float64, numClasses)
	var hits, hotHits, non200, bytesOut int64
	var writes writeStats
	var lastPlant core.LivePlant
	var lastReqs []query

	for round := 0; r.more(); round++ {
		// Set-up: fill a store and ledger with a closed-loop run, bind the
		// service, generate and pre-build the round's requests, and fill
		// the cache with the hot keys.
		t := time.Now()
		train, work, err := controlJobs(fillSeed, queryJobs)
		if err != nil {
			return err
		}
		sys, err := core.NewSystem(train)
		if err != nil {
			return err
		}
		var plant core.LivePlant
		res, err := sys.RunLive(work, liveConfig(nil, nil, func(p core.LivePlant) { plant = p }))
		if err != nil {
			return fmt.Errorf("fill run: %w", err)
		}
		checkLive(r, res, len(work), fmt.Sprintf("round %d fill", round))
		if round == 0 {
			r.exact("fill ticks=%d measured_energy_bits=%#016x jobs=%d", res.Ticks, math.Float64bits(res.MeasuredEnergyJ), len(res.Assignments))
		}
		srv := energyserve.NewServer(energyserve.Options{QuotaRate: 1e9}) // quota accounting on, never rejecting
		srv.Bind(energyserve.Backend{
			Store: plant.Store, Ledger: plant.Ledger, Assignments: plant.Assignments,
			Nodes: plant.Nodes, RackSize: plant.RackSize,
		})
		h := srv.Handler()

		baseS := float64(res.Ticks) * controlTickS
		reqs, hot := queryMix(r.cfg.seed, queryRequests, queryPlan{
			nodes: plant.Nodes, rackSize: plant.RackSize, horizonS: baseS - 120, jobIDs: jobIDs(res.Assignments),
		})
		built := make([]*http.Request, len(reqs))
		byPath := make(map[string]*http.Request, hotKeys)
		for i, q := range reqs {
			if q.class == classLive {
				continue
			}
			req := byPath[q.path]
			if req == nil {
				if req, err = http.NewRequest(http.MethodGet, q.path, nil); err != nil {
					return err
				}
				if q.class == classHot {
					byPath[q.path] = req
				}
			}
			built[i] = req
		}
		for _, path := range hot {
			code, _, err := fetch(h, path)
			if err != nil {
				return err
			}
			r.ok(code == http.StatusOK, "round %d: warming %s: status %d", round, path, code)
		}
		r.setups = append(r.setups, time.Since(t).Seconds())

		lat := make([]float64, 0, len(reqs)/queryBlock)
		var wr *writer
		rw := newCountingWriter()
		err = r.measure(func() (int64, error) {
			wr = startWriter(plant.Store, baseS, r.cfg.seed, r.tr)
			defer wr.close()
			var block time.Time
			for i, q := range reqs {
				if i%queryBlock == 0 {
					if i > 0 {
						lat = append(lat, ms(time.Since(block)))
					}
					r.pace()
					block = time.Now()
				}
				req := built[i]
				if req == nil {
					if req, err = http.NewRequest(http.MethodGet, liveWindow(q.node, wr.now()), nil); err != nil {
						return int64(i), err
					}
				}
				rw.reset()
				id := r.tr.begin(spanNames[q.class], 0, int64(i))
				t := time.Now()
				h.ServeHTTP(rw, req)
				d := time.Since(t)
				r.tr.end(id)
				classUS[q.class] = append(classUS[q.class], us(d))
				bytesOut += rw.n
				if rw.code == http.StatusOK {
					r.passed(1)
				} else {
					non200++
					r.ok(false, "round %d: %s: status %d", round, req.URL, rw.code)
				}
				if rw.h.Get("X-Cache") == "hit" {
					hits++
					if q.class == classHot {
						hotHits++
					}
				}
				if i%verifyEvery == 0 && (q.class == classHot || q.class == classCold) {
					// Sealed history: the cached answer must be the bytes an
					// uncached recompute gives.
					_, cached, err1 := fetch(h, q.path)
					_, fresh, err2 := fetch(h, q.path+"&nocache=1")
					r.ok(err1 == nil && err2 == nil && bytes.Equal(cached, fresh),
						"round %d: %s: cached bytes differ from nocache=1", round, q.path)
				}
			}
			lat = append(lat, ms(time.Since(block)))
			return int64(len(reqs)), nil
		})
		if err != nil {
			return err
		}
		r.rounds = append(r.rounds, lat)
		writes.add(wr.writeStats)
		st := plant.Store.Stats()
		r.ok(st.OutOfOrderDropped == 0, "round %d: store dropped %d samples behind the sealed horizon", round, st.OutOfOrderDropped)
		r.ok(len(wr.writeUS) > 0, "round %d: the writer never ran", round)
		lastPlant, lastReqs = plant, reqs
	}

	for c, name := range classNames {
		s := sortedCopy(classUS[c])
		r.layer["energyserve."+name+"_query_us_p50"] = percentile(s, 50)
		if queryClass(c) == classCold {
			r.layer["energyserve.cold_query_us_p99"] = percentile(s, 99)
		}
	}
	r.layer["energyserve.hit_ratio_hot"] = float64(hotHits) / float64(len(classUS[classHot]))
	r.layer["energyserve.hit_ratio_all"] = float64(hits) / float64(r.units)
	r.layer["energyserve.non200"] = float64(non200)
	ws := sortedCopy(writes.writeUS)
	r.layer["tsdb.write_us_p90"] = percentile(ws, 90)
	r.layer["tsdb.append_ns_per_sample"] = float64(writes.appendIn) / float64(writes.appends)
	r.layer["generator.late_ms_max"] = ms(writes.lateMax)
	r.note("writer: %d writes, %d samples, p50 %.1f us, p90 %.1f us, max late %.3f ms",
		len(ws), writes.appends, percentile(ws, 50), percentile(ws, 90), ms(writes.lateMax))
	r.note("classes: hot %d cold %d live %d ledger %d requests, %d bytes served",
		len(classUS[classHot]), len(classUS[classCold]), len(classUS[classLive]), len(classUS[classLedger]), bytesOut)
	if r.cfg.traced {
		return queryLayers(r, lastPlant, lastReqs)
	}
	return nil
}
