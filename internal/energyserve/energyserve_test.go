package energyserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"davide/internal/accounting"
	"davide/internal/energyapi"
	"davide/internal/obs"
	"davide/internal/tsdb"
)

// testBackend builds a small deterministic queryable surface: 4 nodes of
// telemetry at 0.5 s spacing, 3 jobs across 2 users, racks of 2.
func testBackend(t testing.TB) (Backend, *tsdb.DB) {
	t.Helper()
	db := tsdb.New(tsdb.Options{ChunkSize: 32, Resolutions: []float64{1, 10}})
	for n := 0; n < 4; n++ {
		for i := 0; i <= 1000; i++ {
			db.Append(n, float64(i)*0.5, 100+float64(n)+50*math.Sin(float64(i)/7))
		}
	}
	led := accounting.NewLedger()
	for _, r := range []accounting.Record{
		{JobID: 1, User: 7, App: "cfd", Nodes: 2, StartAt: 10, EndAt: 110, EnergyJ: 4e4},
		{JobID: 2, User: 7, App: "md", Nodes: 1, StartAt: 120, EndAt: 220, EnergyJ: 1.5e4},
		{JobID: 3, User: 9, App: "qcd", Nodes: 1, StartAt: 50, EndAt: 450, EnergyJ: 6e4},
	} {
		if err := led.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	asn := map[int][]int{1: {0, 1}, 2: {2}, 3: {3}}
	return Backend{
		Store:       db,
		Ledger:      led,
		Assignments: func() map[int][]int { return asn },
		Nodes:       4,
		RackSize:    2,
	}, db
}

func doReq(s *Server, tenant, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

func TestUnboundBackend(t *testing.T) {
	s := NewServer(Options{})
	if rr := doReq(s, "", "/v1/users"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503 before Bind", rr.Code)
	}
}

func TestUsersAndJobs(t *testing.T) {
	b, _ := testBackend(t)
	s := NewServer(Options{})
	s.Bind(b)

	rr := doReq(s, "", "/v1/users")
	if rr.Code != http.StatusOK {
		t.Fatalf("users: %d %s", rr.Code, rr.Body)
	}
	var users []accounting.UserSummary
	if err := json.Unmarshal(rr.Body.Bytes(), &users); err != nil {
		t.Fatal(err)
	}
	if len(users) != 2 || users[0].User != 9 || users[0].EnergyJ != 6e4 {
		t.Errorf("users = %+v", users)
	}

	rr = doReq(s, "", "/v1/users/7")
	var ur UserReport
	if err := json.Unmarshal(rr.Body.Bytes(), &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Summary.Jobs != 2 || ur.Summary.EnergyJ != 5.5e4 || len(ur.Records) != 2 {
		t.Errorf("user 7 = %+v", ur)
	}
	if rr := doReq(s, "", "/v1/users/42"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown user: %d", rr.Code)
	}

	rr = doReq(s, "", "/v1/jobs/2")
	var rec accounting.Record
	if err := json.Unmarshal(rr.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.App != "md" || rec.User != 7 {
		t.Errorf("job 2 = %+v", rec)
	}
	if rr := doReq(s, "", "/v1/jobs/99"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown job: %d", rr.Code)
	}
}

func TestJobPhasesMatchesDirect(t *testing.T) {
	b, db := testBackend(t)
	s := NewServer(Options{})
	s.Bind(b)

	rr := doReq(s, "", "/v1/jobs/1/phases")
	if rr.Code != http.StatusOK {
		t.Fatalf("job phases: %d %s", rr.Code, rr.Body)
	}
	var got []energyapi.Phase
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want, err := energyapi.JobPhase(db, "cfd", []int{0, 1}, 10, 110)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != want {
		t.Errorf("served %+v, direct %+v", got, want)
	}

	// Split bounds produce one phase per segment.
	rr = doReq(s, "", "/v1/jobs/1/phases?names=a,b&bounds=10,60,110")
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "a" || got[1].T1 != 110 {
		t.Errorf("split phases = %+v", got)
	}
	if math.Abs(got[0].EnergyJ+got[1].EnergyJ-want.EnergyJ) > 1e-6 {
		t.Errorf("split energies %v+%v != whole %v", got[0].EnergyJ, got[1].EnergyJ, want.EnergyJ)
	}
	if rr := doReq(s, "", "/v1/jobs/1/phases?names=a&bounds=10,60,110"); rr.Code != http.StatusBadRequest {
		t.Errorf("name/bounds mismatch: %d", rr.Code)
	}
}

// TestNodePhasesPropertyEqualDirect pins the report-equivalence
// contract: the served body is byte-for-byte json.Marshal of the direct
// energyapi.PhasesFromStore result, across randomized windows — and a
// window reply over the same span, which a hand encoder writes, is
// byte-for-byte json.Marshal of the directly assembled WindowReport, on
// the miss that encodes it and on the hit that replays it.
func TestNodePhasesPropertyEqualDirect(t *testing.T) {
	b, db := testBackend(t)
	s := NewServer(Options{})
	s.Bind(b)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(4)
		k := 1 + rng.Intn(4)
		bounds := make([]float64, 0, k+1)
		names := make([]string, 0, k)
		at := 400 * rng.Float64()
		bounds = append(bounds, at)
		for i := 0; i < k; i++ {
			at += 1 + 80*rng.Float64()
			bounds = append(bounds, at)
			names = append(names, fmt.Sprintf("ph%d", i))
		}
		direct, err := energyapi.PhasesFromStore(db, n, names, bounds)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(direct)
		if err != nil {
			t.Fatal(err)
		}
		bs := make([]string, len(bounds))
		for i, v := range bounds {
			bs[i] = fmt.Sprintf("%g", v)
		}
		rr := doReq(s, "", fmt.Sprintf("/v1/nodes/%d/phases?names=%s&bounds=%s",
			n, strings.Join(names, ","), strings.Join(bs, ",")))
		if rr.Code != http.StatusOK {
			t.Fatalf("trial %d: %d %s", trial, rr.Code, rr.Body)
		}
		if !bytes.Equal(rr.Body.Bytes(), want) {
			t.Fatalf("trial %d: served body differs from direct marshal\nserved: %s\ndirect: %s",
				trial, rr.Body.Bytes(), want)
		}

		w0, w1, res := bounds[0], bounds[k], []float64{0, 1, 10}[trial%3]
		if trial >= 45 {
			w0, w1 = -1e300, 4e9 // far past both ends of the data
		}
		rep := WindowReport{Node: n, T0: w0, T1: w1, Res: res}
		if rep.EnergyJ, err = db.EnergyAt(n, w0, w1, res); err != nil {
			t.Fatal(err)
		}
		if rep.Points, err = db.Fetch(n, w0, w1, res); err != nil {
			t.Fatal(err)
		}
		rep.MeanW = rep.EnergyJ / (w1 - w0)
		if want, err = json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("/v1/nodes/%d/window?t0=%v&t1=%v&res=%v", n, w0, w1, res)
		for _, cache := range []string{"miss", "hit"} {
			rr := doReq(s, "", strings.ReplaceAll(path, "+", "%2B"))
			if rr.Code != http.StatusOK || rr.Header().Get("X-Cache") != cache {
				t.Fatalf("trial %d: %s: %d %q, want 200 %q", trial, path, rr.Code, rr.Header().Get("X-Cache"), cache)
			}
			if !bytes.Equal(rr.Body.Bytes(), want) {
				t.Fatalf("trial %d: %s (%s): served body differs from direct marshal\nserved: %.300s\ndirect: %.300s",
					trial, path, cache, rr.Body.Bytes(), want)
			}
		}
	}
	if rr := doReq(s, "", "/v1/nodes/77/phases?names=a&bounds=0,1"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown node: %d", rr.Code)
	}
}

func TestWindowCacheCoherence(t *testing.T) {
	b, db := testBackend(t)
	s := NewServer(Options{})
	s.Bind(b)

	// Open window (reaches past the sealed horizon into the head).
	open := "/v1/nodes/0/window?t0=400&t1=600"
	r1 := doReq(s, "", open)
	if r1.Code != http.StatusOK || r1.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first read: %d %q", r1.Code, r1.Header().Get("X-Cache"))
	}
	r2 := doReq(s, "", open)
	if r2.Header().Get("X-Cache") != "hit" || !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		t.Fatalf("second read: %q, bodies equal=%v", r2.Header().Get("X-Cache"),
			bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()))
	}
	// Bypass answers must be bit-identical to the cached ones.
	rb := doReq(s, "", open+"&nocache=1")
	if rb.Header().Get("X-Cache") != "bypass" || !bytes.Equal(rb.Body.Bytes(), r2.Body.Bytes()) {
		t.Fatalf("bypass: %q, identical=%v", rb.Header().Get("X-Cache"),
			bytes.Equal(rb.Body.Bytes(), r2.Body.Bytes()))
	}

	// Ingest inside the open window: the watermark moves, the cached
	// answer must be refetched, and the fresh answer must match bypass.
	db.Append(0, 501, 5000)
	r3 := doReq(s, "", open)
	if r3.Header().Get("X-Cache") != "miss" {
		t.Fatalf("post-ingest read should miss, got %q", r3.Header().Get("X-Cache"))
	}
	if bytes.Equal(r3.Body.Bytes(), r1.Body.Bytes()) {
		t.Fatal("post-ingest answer identical to stale cache")
	}
	if rb := doReq(s, "", open+"&nocache=1"); !bytes.Equal(rb.Body.Bytes(), r3.Body.Bytes()) {
		t.Fatal("post-ingest cached and bypass answers differ")
	}

	// Sealed window: with raw retention off, a window wholly behind the
	// sealed horizon stays a hit across ingest (the sealed fast path).
	sealed := "/v1/nodes/0/window?t0=10&t1=50&res=1"
	if rr := doReq(s, "", sealed); rr.Header().Get("X-Cache") != "miss" {
		t.Fatalf("sealed first read: %q", rr.Header().Get("X-Cache"))
	}
	db.Append(0, 502, 6000)
	rs := doReq(s, "", sealed)
	if rs.Header().Get("X-Cache") != "hit" {
		t.Fatalf("sealed window should survive ingest, got %q", rs.Header().Get("X-Cache"))
	}
	if rb := doReq(s, "", sealed+"&nocache=1"); !bytes.Equal(rb.Body.Bytes(), rs.Body.Bytes()) {
		t.Fatal("sealed cached answer differs from bypass")
	}

	if rr := doReq(s, "", "/v1/nodes/0/window?t0=5&t1=1"); rr.Code != http.StatusBadRequest {
		t.Errorf("reversed window: %d", rr.Code)
	}
	if rr := doReq(s, "", "/v1/nodes/0/window?t0=0&t1=10&res=7"); rr.Code != http.StatusBadRequest {
		t.Errorf("unmaintained res: %d", rr.Code)
	}
	if rr := doReq(s, "", "/v1/nodes/88/window?t0=0&t1=10"); rr.Code != http.StatusNotFound {
		t.Errorf("unknown node: %d", rr.Code)
	}
}

// TestHostileParameters: strconv parses "NaN" and "Inf", and a comparison
// with NaN is false, so each of these once reached the marshaller and came
// back 500; a window far wider than the data once cost a loop over every
// bucket index in it (15 s for 4e9 s) or overflowed into an empty answer.
func TestHostileParameters(t *testing.T) {
	b, _ := testBackend(t)
	s := NewServer(Options{})
	s.Bind(b)
	for path, want := range map[string]int{
		"/v1/nodes/0/window?t0=NaN&t1=NaN":             http.StatusBadRequest,
		"/v1/nodes/0/window?t0=0&t1=Inf":               http.StatusBadRequest,
		"/v1/nodes/0/window?t0=-Inf&t1=5":              http.StatusBadRequest,
		"/v1/nodes/0/window?t0=0&t1=5&res=NaN":         http.StatusBadRequest,
		"/v1/nodes/0/window?t0=0&t1=5&res=Inf":         http.StatusBadRequest,
		"/v1/nodes/0/phases?names=a,b&bounds=0,NaN,10": http.StatusBadRequest,
		"/v1/nodes/0/phases?names=a&bounds=0,%2BInf":   http.StatusBadRequest,
		"/v1/jobs/1/phases?names=a&bounds=NaN,5":       http.StatusBadRequest,
		"/v1/jobs/1/phases?bounds=5":                   http.StatusBadRequest, // one bound is no phase
		"/v1/racks/4611686018427387904/power":          http.StatusNotFound,   // 1<<62: rk*RackSize overflows
		"/v1/racks/2/power":                            http.StatusNotFound,
		"/v1/racks/1/power":                            http.StatusOK,
	} {
		if rr := doReq(s, "", path); rr.Code != want {
			t.Errorf("%s: %d %s, want %d", path, rr.Code, rr.Body, want)
		}
	}

	window := func(query string) WindowReport {
		t.Helper()
		rr := doReq(s, "", "/v1/nodes/0/window?"+query)
		var rep WindowReport
		if err := json.Unmarshal(rr.Body.Bytes(), &rep); rr.Code != http.StatusOK || err != nil {
			t.Fatalf("%s: %d %v", query, rr.Code, err)
		}
		return rep
	}
	tight := window("t0=0&t1=500&res=1")
	for _, q := range []string{"t0=0&t1=4e9&res=1", "t0=0&t1=1e300&res=1", "t0=-1e300&t1=1e300&res=1"} {
		if wide := window(q); wide.EnergyJ != tight.EnergyJ || len(wide.Points) != len(tight.Points) {
			t.Errorf("%s: %v J in %d points, want the data's %v J in %d", q, wide.EnergyJ, len(wide.Points), tight.EnergyJ, len(tight.Points))
		}
	}
	// Against the exact raw answer: one bucket width of peak power per
	// window boundary, the rollup's documented bound.
	if raw := window("t0=0&t1=1e300"); math.Abs(raw.EnergyJ-tight.EnergyJ) > 2*1*153 {
		t.Errorf("res=1 %v J, raw %v J", tight.EnergyJ, raw.EnergyJ)
	}
}

// TestWindowConcurrentSameKey hammers one window key from many
// goroutines while ingest advances the node — every response must be a
// well-formed answer (200, valid JSON) and the run must be race-clean
// under -race -shuffle=on.
func TestWindowConcurrentSameKey(t *testing.T) {
	b, db := testBackend(t)
	s := NewServer(Options{})
	s.Bind(b)
	const workers = 8
	stop := make(chan struct{})
	var ingest sync.WaitGroup
	ingest.Add(1)
	go func() {
		defer ingest.Done()
		tt := 500.5
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Append(1, tt, 300)
			tt += 0.5
		}
	}()
	var queries sync.WaitGroup
	for w := 0; w < workers; w++ {
		queries.Add(1)
		go func() {
			defer queries.Done()
			for i := 0; i < 200; i++ {
				rr := doReq(s, "", "/v1/nodes/1/window?t0=100&t1=800&res=10")
				if rr.Code != http.StatusOK {
					t.Errorf("code = %d: %s", rr.Code, rr.Body)
					return
				}
				var rep WindowReport
				if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
					t.Errorf("bad body: %v", err)
					return
				}
			}
		}()
	}
	queries.Wait()
	close(stop)
	ingest.Wait()
}

// TestWindowReplyIsOneSnapshot: energy_j and points of one reply must be
// one state of the store. Over bucket-aligned res=1 windows the energy is
// the in-order sum of the buckets' own energies, so a reply whose two
// halves were read around an append shows as a sum that does not add up.
func TestWindowReplyIsOneSnapshot(t *testing.T) {
	b, db := testBackend(t)
	s := NewServer(Options{})
	s.Bind(b)
	stop := make(chan struct{})
	var ingest sync.WaitGroup
	ingest.Add(1)
	go func() {
		defer ingest.Done()
		for tt := 500.5; ; tt += 0.5 {
			select {
			case <-stop:
				return
			default:
			}
			db.Append(1, tt, 300+math.Mod(tt, 7))
		}
	}()
	torn := 0
	for i := 0; i < 400; i++ {
		newest, _, err := db.Latest(1)
		if err != nil {
			t.Fatal(err)
		}
		t0 := math.Floor(newest) - 30
		rr := doReq(s, "", fmt.Sprintf("/v1/nodes/1/window?t0=%v&t1=%v&res=1&nocache=1", t0, t0+60))
		var rep WindowReport
		if err := json.Unmarshal(rr.Body.Bytes(), &rep); rr.Code != http.StatusOK || err != nil {
			t.Fatalf("%d %v: %s", rr.Code, err, rr.Body)
		}
		sum := 0.0
		for _, p := range rep.Points {
			sum += p.EnergyJ
		}
		if math.Float64bits(sum) != math.Float64bits(rep.EnergyJ) {
			torn++
		}
	}
	close(stop)
	ingest.Wait()
	if torn > 0 {
		t.Errorf("%d of 400 replies carry an energy_j that is not the sum of their own points", torn)
	}
}

// size counts the entries held, both segments of every stripe.
func (c *windowCache) size() int {
	n := 0
	for i := range c.shards {
		n += len(c.shards[i].probation) + len(c.shards[i].protected)
	}
	return n
}

// TestCacheCapIsABound: Options.CacheCap bounds the entries held whatever
// the stripe count, with keys that are only written and keys that are read
// back into the protected segment.
func TestCacheCapIsABound(t *testing.T) {
	for _, limit := range []int{1, 4, 17, 4096} {
		c := newWindowCache(16, limit)
		for i := 0; i < 10_000; i++ {
			k := keyOf(i%45, float64(i), float64(i)+60, float64(i%2))
			c.put(k, cacheEntry{wm: uint64(i)})
			if i%3 == 0 {
				if e, ok := c.get(k); !ok || e.wm != uint64(i) {
					t.Fatalf("cap %d: key %d read back %v %v right after it was put", limit, i, e, ok)
				}
			}
			if n := c.size(); n > limit {
				t.Fatalf("cap %d: %d entries held after %d keys", limit, n, i+1)
			}
		}
		if n := c.size(); n < min(limit, 8) {
			t.Errorf("cap %d: only %d entries held", limit, n)
		}
	}
}

// TestScanDoesNotEvictHotSet: keys that were hit once stay resident while
// any number of never-repeated keys pass through.
func TestScanDoesNotEvictHotSet(t *testing.T) {
	c := newWindowCache(16, 4096)
	rng := rand.New(rand.NewSource(5))
	hot := make([]windowKey, 256)
	for i := range hot {
		t0 := float64(rng.Intn(7000))
		hot[i] = keyOf(rng.Intn(45), t0, t0+60+float64(rng.Intn(240)), []float64{1, 60}[i%2])
		c.put(hot[i], cacheEntry{wm: uint64(i)})
		if _, ok := c.get(hot[i]); !ok {
			t.Fatalf("hot key %d: second touch is not a hit", i)
		}
	}
	for i := 0; i < 100_000; i++ {
		t0 := float64(rng.Intn(7000)) + float64(i+1)/100_001
		c.put(keyOf(rng.Intn(45), t0, t0+120, float64(i%2)), cacheEntry{})
	}
	for i, k := range hot {
		if e, ok := c.get(k); !ok || e.wm != uint64(i) {
			t.Errorf("hot key %d evicted by the scan", i)
		}
	}
}

// TestTenantTableIsBounded: the tenant name is the client's to choose, so
// neither the bucket table nor the metrics page may grow with the names
// seen. A tenant that is never refused leaves no series behind, and one
// whose bucket has refilled leaves no bucket.
func TestTenantTableIsBounded(t *testing.T) {
	now := 0.0
	reg := obs.NewRegistry()
	q := newQuotaTable(2, 3, func() float64 { return now }, reg)
	for i := 0; i < 1_000_000; i++ {
		now++
		if ok, _ := q.allow("tenant-" + strconv.Itoa(i)); !ok {
			t.Fatalf("fresh tenant %d refused", i)
		}
	}
	held := 0
	for i := range q.shards {
		held += len(q.shards[i].buckets)
	}
	if limit := len(q.shards) * sweepFloor; held > limit {
		t.Errorf("%d buckets held after 1M one-request tenants, want at most %d", held, limit)
	}
	if n := len(reg.Snapshot(true)); n != 0 {
		t.Errorf("%d series registered for tenants that were never refused", n)
	}
}

func TestQuotaExhaustionAndRefill(t *testing.T) {
	now := 0.0
	reg := obs.NewRegistry()
	b, _ := testBackend(t)
	s := NewServer(Options{
		QuotaRate:  2,
		QuotaBurst: 3,
		Now:        func() float64 { return now },
		Obs:        reg,
	})
	s.Bind(b)

	issue := func(tenant string, n int) (ok, rejected int) {
		for i := 0; i < n; i++ {
			if rr := doReq(s, tenant, "/v1/users"); rr.Code == http.StatusTooManyRequests {
				rejected++
			} else if rr.Code == http.StatusOK {
				ok++
			} else {
				t.Fatalf("unexpected code %d", rr.Code)
			}
		}
		return
	}

	// Burst of 3, then exact rejects.
	ok, rej := issue("alice", 10)
	if ok != 3 || rej != 7 {
		t.Fatalf("alice: ok=%d rej=%d, want 3/7", ok, rej)
	}
	// Another tenant has an independent bucket.
	ok, rej = issue("bob", 4)
	if ok != 3 || rej != 1 {
		t.Fatalf("bob: ok=%d rej=%d, want 3/1", ok, rej)
	}
	// Retry-After reflects the refill rate (2/s → under a second → 1).
	rr := doReq(s, "alice", "/v1/users")
	if rr.Code != http.StatusTooManyRequests || rr.Header().Get("Retry-After") != "1" {
		t.Fatalf("reject: code=%d retry-after=%q", rr.Code, rr.Header().Get("Retry-After"))
	}
	// Refill: 1 s at rate 2 buys exactly 2 tokens.
	now += 1
	ok, rej = issue("alice", 5)
	if ok != 2 || rej != 3 {
		t.Fatalf("after refill: ok=%d rej=%d, want 2/3", ok, rej)
	}
	// Reject counters are exact per tenant: 7+1+3 for alice, 1 for bob.
	alice := reg.CounterOf(obs.Key("davide_api_quota_rejects_total", "tenant", "alice")).Load()
	bob := reg.CounterOf(obs.Key("davide_api_quota_rejects_total", "tenant", "bob")).Load()
	if alice != 11 || bob != 1 {
		t.Fatalf("reject counters alice=%d bob=%d, want 11/1", alice, bob)
	}
	// A fresh tenant's window query lands as a cache miss.
	doReq(s, "carol", "/v1/nodes/0/window?t0=0&t1=10&res=1")
	if s.misses.Load() != 1 {
		t.Fatalf("misses = %d", s.misses.Load())
	}
}

func TestRackPower(t *testing.T) {
	b, db := testBackend(t)
	s := NewServer(Options{})
	s.Bind(b)

	rr := doReq(s, "", "/v1/racks/1/power")
	if rr.Code != http.StatusOK {
		t.Fatalf("rack power: %d %s", rr.Code, rr.Body)
	}
	var rp RackPower
	if err := json.Unmarshal(rr.Body.Bytes(), &rp); err != nil {
		t.Fatal(err)
	}
	// Rack 1 is nodes 2 and 3; each node's newest sample is at t=500.
	var want float64
	for _, nd := range []int{2, 3} {
		tt, w, err := db.Latest(nd)
		if err != nil || tt != 500 {
			t.Fatalf("latest(%d) = %v,%v,%v", nd, tt, w, err)
		}
		want += w
	}
	if rp.FirstNode != 2 || rp.Nodes != 2 || math.Abs(rp.PowerW-want) > 1e-9 || rp.AsOf != 500 {
		t.Errorf("rack = %+v, want power %v", rp, want)
	}
	if rr := doReq(s, "", "/v1/racks/9/power"); rr.Code != http.StatusNotFound {
		t.Errorf("out-of-range rack: %d", rr.Code)
	}
}

func TestClientRoundTrip(t *testing.T) {
	b, db := testBackend(t)
	now := 0.0
	s, err := Serve("127.0.0.1:0", Options{QuotaRate: 5, QuotaBurst: 5, Now: func() float64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Bind(b)

	c := NewClient(s.Addr(), "tester")
	users, err := c.Users()
	if err != nil || len(users) != 2 {
		t.Fatalf("users = %v, %v", users, err)
	}
	rec, err := c.Job(3)
	if err != nil || rec.App != "qcd" {
		t.Fatalf("job = %+v, %v", rec, err)
	}
	win, err := c.Window(0, 100, 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantE, err := db.EnergyAt(0, 100, 200, 10)
	if err != nil || math.Abs(win.EnergyJ-wantE) > 1e-9 {
		t.Fatalf("window energy %v, want %v (%v)", win.EnergyJ, wantE, err)
	}
	// Quota: the 5th call spends the last burst token; the 6th must
	// surface a typed QuotaError.
	if _, err := c.RackPower(0); err != nil {
		t.Fatal(err)
	}
	phases, err := c.JobPhases(1)
	if err != nil || len(phases) != 1 || phases[0].Name != "cfd" {
		t.Fatalf("job phases = %+v, %v", phases, err)
	}
	_, err = c.Users()
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.RetryAfter < 1 {
		t.Fatalf("err = %v, want QuotaError with Retry-After >= 1", err)
	}
}
