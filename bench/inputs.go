package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"davide/internal/fleet"
	"davide/internal/sensor"
	"davide/internal/workload"
)

// Every input the workloads feed the program is generated here, as a
// pure function of the seed (ED-4): the program under test receives only
// the generated values, never the seed's meaning.

// fabricStreams builds one distinct Const+Square waveform per node (the
// E20 shape: a cross-node mix-up cannot cancel out in a fleet total).
// The set of waveforms is fixed and the seed deals them to the nodes, so
// every seed gives different inputs but the same total work: a metric
// may then be compared across seeds.
func fabricStreams(seed int64, nodes int) []fleet.NodeStream {
	deal := rand.New(rand.NewSource(seed)).Perm(nodes)
	out := make([]fleet.NodeStream, nodes)
	for i := range out {
		k := deal[i]
		out[i] = fleet.NodeStream{
			Node: i,
			Signal: sensor.Sum{
				sensor.Const(280 + float64(k%64)),
				sensor.Square{
					Low:    0,
					High:   700 + float64(k*7%400),
					Period: 2 + 0.01*float64(k%100),
					Duty:   0.3 + 0.002*float64(k*3%100),
				},
			},
		}
	}
	return out
}

// meanInterarrivalS is the closed loop's mean job interarrival time.
const meanInterarrivalS = 45

// controlJobs draws the closed-loop workload: 600 jobs of predictor
// training history followed by n jobs to schedule. The n submissions are
// rescaled to span exactly n mean interarrivals from t = 0: which jobs
// arrive, and in what rhythm, follows the seed, but the virtual time a
// run covers — and with it the tick count — barely does.
func controlJobs(seed int64, n int) (train, work []workload.Job, err error) {
	cfg := workload.DefaultGeneratorConfig(seed)
	cfg.MaxNodes = 8
	cfg.MeanInterarrival = meanInterarrivalS
	cfg.MeanRuntime = 300
	cfg.RuntimeSigma = 0.6
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		return nil, nil, err
	}
	if train, err = gen.Batch(600); err != nil {
		return nil, nil, err
	}
	if work, err = gen.Batch(n); err != nil {
		return nil, nil, err
	}
	base := work[0].SubmitAt
	scale := float64(n) * meanInterarrivalS / (work[n-1].SubmitAt - base)
	for i := range work {
		work[i].SubmitAt = (work[i].SubmitAt - base) * scale
	}
	return train, work, nil
}

// queryClass is one traffic class of the query mix.
type queryClass int

const (
	classHot    queryClass = iota // repeated sealed-history windows: the cache hit path
	classCold                     // never-repeated windows: the store scan
	classLive                     // trailing window of a node under ingest: watermark invalidation
	classLedger                   // accounting and rack-power endpoints
	numClasses
)

var classNames = [numClasses]string{"hot", "cold", "live", "ledger"}

// query is one generated request. Live paths depend on how far the
// writer has advanced and are completed at issue time (see liveWindow).
type query struct {
	class queryClass
	path  string // empty for classLive
	// The window a hot, cold or live request asks for (live: node only).
	node        int
	t0, t1, res float64
}

// queryPlan describes the store a query mix runs against.
type queryPlan struct {
	nodes    int
	rackSize int
	horizonS float64 // queries on sealed history stay inside [0, horizonS]
	jobIDs   []int   // completed jobs, ascending
}

const hotKeys = 256

// windowPath is the service's hot query: one node's power over a window
// at one resolution (0 = raw samples).
func windowPath(node int, t0, t1, res float64) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return "/v1/nodes/" + strconv.Itoa(node) + "/window?t0=" + f(t0) + "&t1=" + f(t1) + "&res=" + f(res)
}

// queryMix draws n requests: 60 % hot (256 fixed keys, well inside the
// service's 4096-entry cache), 20 % cold (every window distinct, raw and
// both rollup resolutions), 10 % live and 10 % ledger. It also returns
// the hot key set, so the cache can be filled before timing starts.
func queryMix(seed int64, n int, p queryPlan) (reqs []query, hot []string) {
	rng := rand.New(rand.NewSource(seed))
	window := func() (t0, t1 float64) {
		span := 60 + float64(rng.Intn(240))
		t0 = float64(rng.Intn(int(p.horizonS - span)))
		return t0, t0 + span
	}
	hot = make([]string, hotKeys)
	for i := range hot {
		t0, t1 := window()
		hot[i] = windowPath(rng.Intn(p.nodes), t0, t1, []float64{1, 60}[i%2])
	}
	racks := (p.nodes + p.rackSize - 1) / p.rackSize
	reqs = make([]query, n)
	for i := range reqs {
		switch u := rng.Float64(); {
		case u < 0.6:
			reqs[i] = query{class: classHot, path: hot[rng.Intn(hotKeys)]}
		case u < 0.8:
			// A fractional start no other request shares makes the key
			// unique, so a cold request can never be served from cache.
			t0, t1 := window()
			t0 += float64(i+1) / float64(n+1)
			q := query{class: classCold, node: rng.Intn(p.nodes), t0: t0, t1: t1, res: []float64{0, 1, 60}[rng.Intn(3)]}
			q.path = windowPath(q.node, q.t0, q.t1, q.res)
			reqs[i] = q
		case u < 0.9:
			reqs[i] = query{class: classLive, node: rng.Intn(p.nodes)}
		default:
			job := p.jobIDs[rng.Intn(len(p.jobIDs))]
			paths := []string{
				"/v1/users",
				fmt.Sprintf("/v1/jobs/%d", job),
				fmt.Sprintf("/v1/jobs/%d/phases", job),
				fmt.Sprintf("/v1/racks/%d/power", rng.Intn(racks)),
			}
			reqs[i] = query{class: classLedger, path: paths[rng.Intn(len(paths))]}
		}
	}
	return reqs, hot
}

// liveWindow is a live request's path once the writer's position is
// known: the trailing 60 s of the node, at 1-s resolution.
func liveWindow(node int, nowS float64) string {
	return windowPath(node, nowS-60, nowS, 1)
}

// writerSamples is what query-mix's writer appends for each node every
// virtual second: four samples around a per-node level near idle power.
func writerSamples(seed int64, nodes int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, nodes)
	for n := range out {
		level := 360 + 40*rng.Float64()
		out[n] = []float64{level, level + 1, level, level - 1}
	}
	return out
}
