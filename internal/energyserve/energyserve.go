// Package energyserve is the multi-tenant energy query service of the
// control plane: an HTTP/JSON front end over the accounting ledger and the
// telemetry store. It is the piece that turns the paper's per-user/per-job
// energy accounting (§III-A1) and the §IV phase views into something site
// users and tools can actually query while a run is in flight — with
// per-tenant token-bucket quotas so one user's dashboard cannot starve the
// plane, and a sharded result cache over the hot window queries kept
// coherent with ingest by the store's watermark (see DESIGN.md §11 for the
// coherence contract).
package energyserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"davide/internal/accounting"
	"davide/internal/obs"
	"davide/internal/tsdb"
)

// Backend is the queryable surface the server fronts. All fields must be
// safe for concurrent use (the store and ledger are internally locked;
// Assignments must snapshot under its own lock — core.LivePlant hands
// over exactly such a set mid-run).
type Backend struct {
	// Store answers window/energy/phase queries.
	Store *tsdb.DB
	// Ledger answers per-user and per-job accounting queries.
	Ledger *accounting.Ledger
	// Assignments maps job ID to the concrete nodes it ran on (nil
	// disables the job-phase endpoint).
	Assignments func() map[int][]int
	// Nodes and RackSize describe the machine geometry for the per-rack
	// power endpoint.
	Nodes    int
	RackSize int
}

// Options tunes a Server. The zero value serves unthrottled with no
// metrics.
type Options struct {
	// QuotaRate is each tenant's sustained request budget in requests
	// per second; 0 disables quota enforcement.
	QuotaRate float64
	// QuotaBurst is the token-bucket depth (default: QuotaRate).
	QuotaBurst float64
	// Obs, when non-nil, receives the service metrics (request counts,
	// cache hit/miss, per-tenant quota rejects, latency histograms) —
	// all registered volatile, so deterministic snapshots ignore them.
	Obs *obs.Registry
	// Now supplies the quota clock in seconds (default: wall clock).
	// Injectable so tests can drive refill deterministically.
	Now func() float64
}

func (o Options) withDefaults() Options {
	if o.QuotaBurst <= 0 {
		o.QuotaBurst = o.QuotaRate
	}
	if o.Now == nil {
		o.Now = func() float64 { return float64(time.Now().UnixNano()) / 1e9 }
	}
	return o
}

// Server is the query service. Build one with NewServer (or Serve to
// listen immediately), then Bind a Backend; requests before Bind get 503.
type Server struct {
	opts    Options
	backend atomic.Pointer[Backend]
	cache   *windowCache
	quotas  *quotaTable
	mux     *http.ServeMux

	hits, misses atomic.Int64

	ln  net.Listener
	srv *http.Server
}

// NewServer builds the service without listening — Handler plugs it into
// any http server, or drive it directly in tests and benchmarks.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:   opts,
		cache:  newWindowCache(),
		quotas: newQuotaTable(opts.QuotaRate, opts.QuotaBurst, opts.Now, opts.Obs),
		mux:    http.NewServeMux(),
	}
	if opts.Obs != nil {
		opts.Obs.CounterFunc("davide_api_cache_hits_total",
			func() float64 { return float64(s.hits.Load()) }, obs.Volatile())
		opts.Obs.CounterFunc("davide_api_cache_misses_total",
			func() float64 { return float64(s.misses.Load()) }, obs.Volatile())
		opts.Obs.GaugeFunc("davide_api_cache_hit_ratio", func() float64 {
			h, m := float64(s.hits.Load()), float64(s.misses.Load())
			if h+m == 0 {
				return 0
			}
			return h / (h + m)
		}, obs.Volatile())
	}
	s.route("GET /v1/users", "users", s.handleUsers)
	s.route("GET /v1/users/{id}", "user", s.handleUser)
	s.route("GET /v1/jobs/{id}", "job", s.handleJob)
	s.route("GET /v1/jobs/{id}/phases", "job_phases", s.handleJobPhases)
	s.route("GET /v1/nodes/{n}/phases", "node_phases", s.handleNodePhases)
	s.route("GET /v1/nodes/{n}/window", "window", s.handleWindow)
	s.route("GET /v1/racks/{r}/power", "rack_power", s.handleRackPower)
	return s
}

// Serve builds the service and starts listening on addr (":0" picks a
// free port; Addr reports the bound one).
func Serve(addr string, opts Options) (*Server, error) {
	s := NewServer(opts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Bind points the server at a backend (atomically; safe while serving).
func (s *Server) Bind(b Backend) {
	s.backend.Store(&b)
}

// Handler returns the service mux for embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// Addr returns the bound listen address ("" when built with NewServer).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener (a no-op for an unlistened server).
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// tenantOf resolves the requester's tenant: the X-Tenant header, the
// tenant query parameter, or "anon".
func tenantOf(r *http.Request, q url.Values) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if t := q.Get("tenant"); t != "" {
		return t
	}
	return "anon"
}

// handler is one endpoint: the request, its query string as route parsed
// it, and the bound backend.
type handler func(w http.ResponseWriter, r *http.Request, q url.Values, b *Backend)

// route registers one endpoint behind the shared quota/metrics wrapper.
func (s *Server) route(pattern, name string, fn handler) {
	var requests *obs.Counter
	var lat *obs.Histogram
	if s.opts.Obs != nil {
		requests = s.opts.Obs.CounterOf(
			obs.Key("davide_api_requests_total", "endpoint", name), obs.Volatile())
		// Observed in microseconds, scaled to seconds on export.
		lat = s.opts.Obs.HistogramOf(
			obs.Key("davide_api_latency_seconds", "endpoint", name),
			obs.Volatile(), obs.Scale(1e-6))
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if requests != nil {
			requests.Inc()
		}
		q := r.URL.Query() // the one parse of the request
		if ok, wait := s.quotas.allow(tenantOf(r, q)); !ok {
			// Retry-After is delta-seconds, rounded up so a compliant
			// client never retries before a token exists.
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(wait))))
			http.Error(w, "energyserve: tenant quota exceeded", http.StatusTooManyRequests)
			return
		}
		b := s.backend.Load()
		if b == nil {
			http.Error(w, "energyserve: no backend bound", http.StatusServiceUnavailable)
			return
		}
		fn(w, r, q, b)
		if lat != nil {
			lat.Observe(time.Since(start).Microseconds())
		}
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// UserReport is one user's summary line plus the per-job detail.
type UserReport struct {
	Summary accounting.UserSummary `json:"summary"`
	Records []accounting.Record    `json:"records"`
}

// WindowReport is one node's power over a window at one resolution — the
// cached hot query.
type WindowReport struct {
	Node    int          `json:"node"`
	T0      float64      `json:"t0"`
	T1      float64      `json:"t1"`
	Res     float64      `json:"res"`
	EnergyJ float64      `json:"energy_j"`
	MeanW   float64      `json:"mean_w"`
	Points  []tsdb.Point `json:"points"`
}

// RackPower is one rack's instantaneous IT power from latest telemetry.
type RackPower struct {
	Rack      int     `json:"rack"`
	FirstNode int     `json:"first_node"`
	Nodes     int     `json:"nodes"` // nodes with telemetry included in the sum
	PowerW    float64 `json:"power_w"`
	AsOf      float64 `json:"as_of"` // oldest contributing sample time
}

func (s *Server) handleUsers(w http.ResponseWriter, _ *http.Request, _ url.Values, b *Backend) {
	writeJSON(w, b.Ledger.PerUser())
}

func (s *Server) handleUser(w http.ResponseWriter, r *http.Request, _ url.Values, b *Backend) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "energyserve: bad user id", http.StatusBadRequest)
		return
	}
	recs := b.Ledger.UserRecords(id)
	if len(recs) == 0 {
		http.Error(w, fmt.Sprintf("energyserve: no records for user %d", id), http.StatusNotFound)
		return
	}
	sum := accounting.UserSummary{User: id}
	for _, rec := range recs {
		sum.Jobs++
		sum.EnergyJ += rec.EnergyJ
		sum.NodeSeconds += rec.NodeSeconds()
	}
	if sum.NodeSeconds > 0 {
		sum.EnergyPerNodeSecond = sum.EnergyJ / sum.NodeSeconds
	}
	writeJSON(w, UserReport{Summary: sum, Records: recs})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, _ url.Values, b *Backend) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "energyserve: bad job id", http.StatusBadRequest)
		return
	}
	rec, err := b.Ledger.Job(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, rec)
}

// parseFinite parses one float parameter. strconv accepts "NaN" and "Inf",
// which no window or phase bound can mean and JSON cannot answer with, so
// they are refused here, before they reach the store.
func parseFinite(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && finite(v)
}

// phaseArgs reads a phase route's optional names and its bounds, a
// comma-separated list of finite numbers ("" -> nil).
func phaseArgs(q url.Values) (names []string, bounds []float64, err error) {
	if n := q.Get("names"); n != "" {
		names = strings.Split(n, ",")
	}
	if s := q.Get("bounds"); s != "" {
		for _, p := range strings.Split(s, ",") {
			v, ok := parseFinite(strings.TrimSpace(p))
			if !ok {
				return nil, nil, fmt.Errorf("energyserve: bad boundary %q", p)
			}
			bounds = append(bounds, v)
		}
	}
	return names, bounds, nil
}

func (s *Server) handleJobPhases(w http.ResponseWriter, r *http.Request, q url.Values, b *Backend) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "energyserve: bad job id", http.StatusBadRequest)
		return
	}
	rec, err := b.Ledger.Job(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if b.Assignments == nil {
		http.Error(w, "energyserve: no assignment view bound", http.StatusNotFound)
		return
	}
	nodes := b.Assignments()[id]
	if len(nodes) == 0 {
		http.Error(w, fmt.Sprintf("energyserve: job %d has no node assignment", id), http.StatusNotFound)
		return
	}
	names, bounds, err := phaseArgs(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if bounds == nil {
		bounds = []float64{rec.StartAt, rec.EndAt}
	}
	if names == nil && len(bounds) > 1 {
		names = make([]string, len(bounds)-1)
		for i := range names {
			names[i] = rec.App
		}
	}
	phases, err := accounting.Phases(b.Store, nodes, names, bounds)
	if err != nil {
		http.Error(w, err.Error(), storeStatus(err))
		return
	}
	writeJSON(w, phases)
}

func (s *Server) handleNodePhases(w http.ResponseWriter, r *http.Request, q url.Values, b *Backend) {
	node, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		http.Error(w, "energyserve: bad node", http.StatusBadRequest)
		return
	}
	names, bounds, err := phaseArgs(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	phases, err := accounting.Phases(b.Store, []int{node}, names, bounds)
	if err != nil {
		http.Error(w, err.Error(), storeStatus(err))
		return
	}
	// The body is exactly json.Marshal of the direct accounting.Phases
	// result — the contract the report-equivalence property test pins.
	writeJSON(w, phases)
}

// storeStatus maps a store-backed query error to an HTTP status.
func storeStatus(err error) int {
	if errors.Is(err, tsdb.ErrUnknownNode) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// sealedValid reports whether a cached window answer is immutable
// regardless of watermark movement: with raw retention disabled, every
// bucket (or raw sample) the query touches lies wholly behind the
// store's sealed horizon, where ingest can no longer place samples. The
// rollup bucket containing the horizon is still mutable (an in-head
// insert past the horizon can land in it), so for res > 0 the window's
// last bucket boundary must stay at or before the last complete bucket
// before the horizon.
func sealedValid(b *Backend, node int, t1, res float64) bool {
	if b.Store.RawRetention() != 0 {
		return false
	}
	h, ok := b.Store.SealedHorizon(node)
	if !ok {
		return false
	}
	if res > 0 {
		return math.Ceil(t1/res)*res <= math.Floor(h/res)*res
	}
	return t1 <= h
}

func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request, q url.Values, b *Backend) {
	node, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		http.Error(w, "energyserve: bad node", http.StatusBadRequest)
		return
	}
	t0, ok0 := parseFinite(q.Get("t0"))
	t1, ok1 := parseFinite(q.Get("t1"))
	if !ok0 || !ok1 || t1 < t0 {
		http.Error(w, "energyserve: need finite t0 <= t1", http.StatusBadRequest)
		return
	}
	res := 0.0
	if rs := q.Get("res"); rs != "" {
		v, ok := parseFinite(rs)
		if !ok || v < 0 {
			http.Error(w, "energyserve: bad res", http.StatusBadRequest)
			return
		}
		res = v
	}
	bypass := q.Get("nocache") == "1"
	key := keyOf(node, t0, t1, res)
	if !bypass {
		if e, ok := s.cache.get(key); ok {
			cur := b.Store.Watermark(node)
			if cur == e.wm || sealedValid(b, node, t1, res) {
				if cur != e.wm {
					// Refresh the stamp so the cheap equality path wins
					// next time.
					s.cache.put(key, cacheEntry{body: e.body, wm: cur})
				}
				s.hits.Add(1)
				w.Header().Set("X-Cache", "hit")
				w.Header().Set("Content-Type", "application/json")
				_, _ = w.Write(e.body)
				return
			}
		}
	}
	// Read the watermark BEFORE the data: if ingest lands in between,
	// the entry is stamped older than its contents and the next lookup
	// conservatively refetches — a cached answer is never staler than
	// its stamp claims.
	wm := b.Store.Watermark(node)
	sc := windowScratch.Get().(*scratch)
	defer windowScratch.Put(sc)
	// One store call: energy_j and points are one state of the node.
	energy, points, err := b.Store.Window(node, t0, t1, res, sc.points[:0])
	sc.points = points
	if err != nil {
		http.Error(w, err.Error(), storeStatus(err))
		return
	}
	rep := WindowReport{Node: node, T0: t0, T1: t1, Res: res, EnergyJ: energy, Points: points}
	if len(points) == 0 {
		rep.Points = nil // "points":null, as for the nil slice Fetch returns
	}
	if t1 > t0 {
		rep.MeanW = energy / (t1 - t0)
	}
	body, err := appendWindowReport(sc.body[:0], &rep)
	sc.body = body
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if bypass {
		w.Header().Set("X-Cache", "bypass")
	} else {
		s.misses.Add(1)
		// An exact-size copy: the scratch's spare capacity, held by every
		// cached body, would be a fifth of the service's memory.
		s.cache.put(key, cacheEntry{body: append([]byte(nil), body...), wm: wm})
		w.Header().Set("X-Cache", "miss")
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

func (s *Server) handleRackPower(w http.ResponseWriter, r *http.Request, _ url.Values, b *Backend) {
	rk, err := strconv.Atoi(r.PathValue("r"))
	if err != nil || rk < 0 {
		http.Error(w, "energyserve: bad rack", http.StatusBadRequest)
		return
	}
	// Compared in racks: rk*RackSize overflows for a large rk.
	if b.RackSize <= 0 || b.Nodes <= 0 || rk > (b.Nodes-1)/b.RackSize {
		http.Error(w, fmt.Sprintf("energyserve: no rack %d", rk), http.StatusNotFound)
		return
	}
	first := rk * b.RackSize
	last := first + b.RackSize
	if last > b.Nodes {
		last = b.Nodes
	}
	// Served from the store's newest samples, not node models: a model
	// read would race with the controller actuating mid-run, while the
	// store is the measured truth and internally locked.
	out := RackPower{Rack: rk, FirstNode: first}
	for n := first; n < last; n++ {
		t, pw, err := b.Store.Latest(n)
		if err != nil {
			continue // no telemetry yet for this node
		}
		if out.Nodes == 0 || t < out.AsOf {
			out.AsOf = t
		}
		out.Nodes++
		out.PowerW += pw
	}
	if out.Nodes == 0 {
		http.Error(w, fmt.Sprintf("energyserve: no telemetry yet for rack %d", rk), http.StatusNotFound)
		return
	}
	writeJSON(w, out)
}
