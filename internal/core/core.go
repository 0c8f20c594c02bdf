// Package core wires the substrates into the full D.A.V.I.D.E. power-aware
// stack of Fig. 4 in the paper: the pilot cluster (hardware models), the
// per-node energy gateways publishing over a real MQTT broker, the
// telemetry aggregator and per-job energy accounting (EA), the job power
// predictors (EP), and the power-aware scheduler. It is the paper's
// "system middleware software" in one object.
//
// Two planes coexist:
//
//   - the virtual-time plane: job scheduling, node power traces and energy
//     accounting run on simulated time, so months of machine operation
//     take milliseconds;
//   - the wall-clock plane: the MQTT telemetry path is real MQTT — the
//     StreamWindow method replays a virtual-time window through actual
//     gateways, broker(s) and subscriber agents, so the telemetry numbers
//     (throughput, delivered-energy accuracy) are measured, not modelled.
//     Replays and the live control loop (RunLive) all stand up the same
//     plant, a fleet.Plane over System.StreamRacks racks.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"davide/internal/accounting"
	"davide/internal/chaos"
	"davide/internal/cluster"
	"davide/internal/fleet"
	"davide/internal/mqtt"
	"davide/internal/obs"
	"davide/internal/predictor"
	"davide/internal/sched"
	"davide/internal/sensor"
	"davide/internal/telemetry"
	"davide/internal/tsdb"
	"davide/internal/workload"
)

// System is the assembled D.A.V.I.D.E. stack.
type System struct {
	Cluster   *cluster.Cluster
	Ledger    *accounting.Ledger
	Predictor predictor.Predictor

	// IdleNodePowerW is the idle draw used in node signals and billing.
	IdleNodePowerW float64

	// StoreOptions tunes the telemetry store each replay writes into
	// (chunk size, rollup resolutions, raw retention). Zero value =
	// tsdb defaults.
	StoreOptions tsdb.Options

	// StreamFaults, when non-nil, runs telemetry replays under
	// deterministic fault injection (see internal/chaos and
	// fleet.ChaosPreset): the E18 chaos-soak path. A *chaos.Plan runs
	// one schedule; a *chaos.Composite (fleet.ChaosStack) runs a
	// phase-windowed stack keyed off payload virtual time.
	StreamFaults chaos.Planner

	// StreamBatchSamples overrides the per-batch sample count of
	// telemetry replays (0 = the fleet default of 512). Chaos soaks use
	// smaller batches so per-packet faults get statistics.
	StreamBatchSamples int

	// StreamRacks is the number of rack broker cells of the fleet.Plane
	// every replay and live run streams through (0 counts as 1). One rack
	// is the paper's pilot layout — one broker; more partition the fleet
	// over per-rack brokers with bridge uplinks into a spine. Results are
	// bit-identical for any value (DESIGN.md §8.2).
	StreamRacks int

	// BridgeFaults, when non-nil, injects deterministic faults on the
	// rack→spine uplinks (plan keyed by rack index; see
	// fleet.ChaosBridgePresetNames), so it requires StreamRacks > 1.
	// StreamWindow then also attaches a spine-side verification
	// aggregator and reports the spine copy's accounting in the result.
	BridgeFaults chaos.Planner

	// Obs, when non-nil, instruments every replay and live run: stage
	// traces, broker/bridge/fleet/store/scheduler counters all publish
	// into this registry (DESIGN.md §9), live runs self-ingest a health
	// snapshot per control tick, and replays one at end of window. The
	// registry outlives individual plants, so counters accumulate across
	// replays and func-backed series re-point to the newest plant.
	Obs *obs.Registry

	// Node power signals from the last RunScheduled, one per node.
	signals []*sensor.Piecewise
	// The telemetry store filled by the most recent replay
	// (StreamWindow or JobEnergyFromTelemetry).
	store *tsdb.DB
	// Assignments from the last RunScheduled: job ID -> node IDs.
	assignments map[int][]int
	lastResult  *sched.Result
	jobsByID    map[int]workload.Job
	// trainJobs is the predictor's initial history, kept so RunLive can
	// seed an online-retraining wrapper around the same model.
	trainJobs []workload.Job
	// selfIngest writes periodic registry snapshots into its own health
	// store when Obs is set (lazily built; see SelfIngest).
	selfIngest *SelfIngest
}

// SelfIngest returns the health-series store the instrumented plane
// writes its own registry snapshots into (one point per live control
// tick, one at the end of each replay window) — the plane monitoring
// itself through the same tsdb machinery it monitors the cluster with.
// Nil until Obs is set and a replay or live run has executed.
func (s *System) SelfIngest() *SelfIngest { return s.selfIngest }

// obsSelfIngest lazily builds the self-ingest sink for the registry.
func (s *System) obsSelfIngest() *SelfIngest {
	if s.Obs == nil {
		return nil
	}
	if s.selfIngest == nil {
		s.selfIngest = NewSelfIngest(s.Obs)
	}
	return s.selfIngest
}

// NewSystem builds the pilot system with a trained power predictor.
func NewSystem(trainJobs []workload.Job) (*System, error) {
	c, err := cluster.New(cluster.PilotConfig())
	if err != nil {
		return nil, err
	}
	s := &System{
		Cluster:        c,
		Ledger:         accounting.NewLedger(),
		IdleNodePowerW: 360,
	}
	p := predictor.NewMeanPerKey()
	if len(trainJobs) > 0 {
		if err := p.Train(trainJobs); err != nil {
			return nil, err
		}
		s.Predictor = p
		s.trainJobs = append([]workload.Job(nil), trainJobs...)
	}
	return s, nil
}

// RunScheduled executes the workload on the batch simulator under the
// given dispatch discipline (nil = strict FIFO) and cap configuration,
// builds per-node power signals from the simulator's node assignment and
// fills the energy ledger with each job's analytic energy-to-solution. A
// power-aware strategy without an estimator gets the system predictor,
// as in RunLive.
func (s *System) RunScheduled(jobs []workload.Job, cfg sched.Config, strategy sched.Strategy) (*sched.Result, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = s.Cluster.NodeCount()
	}
	if cfg.Nodes != s.Cluster.NodeCount() {
		return nil, fmt.Errorf("core: config nodes %d != cluster %d", cfg.Nodes, s.Cluster.NodeCount())
	}
	if cfg.IdleNodePowerW == 0 {
		cfg.IdleNodePowerW = s.IdleNodePowerW
	}
	if cfg.Estimator == nil && s.Predictor != nil && strategy != nil && strategy.PowerAware() {
		cfg.Estimator = s.Predictor.Predict
	}
	sim, err := sched.NewSimulator(cfg, strategy, jobs)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	assign := sim.Assignments()

	// Build per-node piecewise power signals from the assignment.
	type edge struct {
		t     float64
		delta float64
	}
	perNode := make([][]edge, cfg.Nodes)
	for _, j := range jobs {
		for _, n := range assign[j.ID] {
			perNode[n] = append(perNode[n], edge{t: res.Starts[j.ID], delta: j.TruePowerPerNode - s.IdleNodePowerW})
			perNode[n] = append(perNode[n], edge{t: res.Ends[j.ID], delta: -(j.TruePowerPerNode - s.IdleNodePowerW)})
		}
	}
	s.signals = make([]*sensor.Piecewise, cfg.Nodes)
	for n := range perNode {
		edges := perNode[n]
		sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
		sig := sensor.NewPiecewise(0, s.IdleNodePowerW)
		level := s.IdleNodePowerW
		for i := 0; i < len(edges); {
			t := edges[i].t
			for i < len(edges) && edges[i].t == t {
				level += edges[i].delta
				i++
			}
			if err := sig.Set(t, level); err != nil {
				return nil, err
			}
		}
		s.signals[n] = sig
	}

	// Fill the ledger with analytic per-job energy.
	s.jobsByID = make(map[int]workload.Job, len(jobs))
	for _, j := range jobs {
		s.jobsByID[j.ID] = j
		e := 0.0
		for range assign[j.ID] {
			e += j.TruePowerPerNode * (res.Ends[j.ID] - res.Starts[j.ID])
		}
		if err := s.Ledger.Add(accounting.Record{
			JobID: j.ID, User: j.User, App: j.App.String(), Nodes: j.Nodes,
			StartAt: res.Starts[j.ID], EndAt: res.Ends[j.ID], EnergyJ: e,
		}); err != nil {
			return nil, err
		}
	}
	s.assignments = assign
	s.lastResult = res
	return res, nil
}

// Assignments returns the node assignment of the last run.
func (s *System) Assignments() map[int][]int { return s.assignments }

// NodeSignal returns node n's power signal from the last run.
func (s *System) NodeSignal(n int) (*sensor.Piecewise, error) {
	if s.signals == nil {
		return nil, errors.New("core: no scheduled run yet")
	}
	if n < 0 || n >= len(s.signals) {
		return nil, fmt.Errorf("core: node %d out of range", n)
	}
	return s.signals[n], nil
}

// Store returns the compressed telemetry store filled by the most recent
// replay (StreamWindow or JobEnergyFromTelemetry), for post-hoc
// interrogation — range queries, downsampled fetches, footprint stats —
// the role the ExaMon back end plays in the paper's monitoring plane.
// Nil before the first replay.
func (s *System) Store() *tsdb.DB { return s.store }

// StreamResult summarises one real-MQTT telemetry replay.
type StreamResult struct {
	Window          float64 // seconds of virtual time streamed
	NodesStreamed   int
	SamplesSent     int
	BatchesSent     int
	BrokerPublishes int64
	BrokerDropped   int64
	// BrokerFanoutEncodedOnce counts deliveries that shared an earlier
	// subscriber's PUBLISH encoding (encode-once fan-out hits).
	BrokerFanoutEncodedOnce int64
	// BrokerBufReuses / ClientBufReuses count pooled packet-buffer
	// reuses on the broker's read path and the gateways' publish path.
	BrokerBufReuses int64
	ClientBufReuses int64
	// WireBytesPerSample is the mean encoded batch payload size per power
	// sample — the figure the binary batch frame controls.
	WireBytesPerSample float64
	WallClock          time.Duration
	// MaxEnergyErrPct is the worst per-node deviation between the
	// telemetry-derived energy and the analytic truth.
	MaxEnergyErrPct float64
	// PerNode carries each gateway's publish/delivery statistics.
	PerNode []fleet.NodeStats
	// Faults sums the injected-fault counters across the fleet (all
	// zero unless the replay ran under StreamFaults); GatewayRestarts
	// counts injected crash/reconnect cycles.
	Faults          chaos.Counters
	GatewayRestarts int
	// ReorderedBatches / UndecodableDropped are the aggregator-side
	// effects of the injected faults: batches that arrived out of order
	// or overlapping, and payloads that failed to decode. Under chaos
	// they must match the injected cause counts exactly
	// (Faults.ExpectedReorders and Faults.Corrupted).
	ReorderedBatches   int
	UndecodableDropped int
	// StoreOutOfOrderDropped counts samples that arrived too far behind
	// the store's sealed horizon to ingest. The store keeps a rolling
	// head window of at least ChunkSize samples and StreamWindow
	// enforces hold-span × batch-size ≤ chunk-size, so this stays zero
	// for every preset (asserted by E18); non-zero means unaccounted
	// loss.
	StoreOutOfOrderDropped int
	// Racks is the number of rack broker cells the replay streamed
	// through (1 = the pilot's one broker). The Broker* fields above sum
	// over the rack brokers — the primary ingest tier; the spine's own
	// traffic is accounted by Bridge.
	Racks int
	// Bridge sums the rack→spine uplink accounting (zero at one rack,
	// which has no spine).
	Bridge mqtt.BridgeStats
	// BridgeFaults sums the injected uplink faults (zero unless
	// System.BridgeFaults was set).
	BridgeFaults chaos.Counters
	// SpineSamples is the verified sample count of the spine copy,
	// and SpineMaxEnergyErrPct the worst per-node deviation between the
	// spine copy's energy and the rack-tier ingest. Both are populated
	// only when System.BridgeFaults is set (the spine verification
	// aggregator costs a full extra ingest path, so it is attached only
	// when the spine copy is the object under test).
	SpineSamples         int
	SpineMaxEnergyErrPct float64
}

// chaosSafeBatch reconciles a faulted replay's per-batch sample count
// with the store's reordering tolerance. A held batch is released up to
// HoldSpan batches late, so the store's head window must absorb
// HoldSpan × batch samples or late releases fall behind the sealed
// horizon as unaccounted loss, silently voiding the preset's energy
// error bound. A nil plan passes batchSamples through unchanged.
func chaosSafeBatch(plan chaos.Planner, nodes, batchSamples int, opts tsdb.Options) (int, error) {
	if plan == nil {
		return batchSamples, nil
	}
	maxSpan := 0
	for n := 0; n < nodes; n++ {
		if sp := plan.MaxHoldSpan(n); sp > maxSpan {
			maxSpan = sp
		}
	}
	if maxSpan == 0 {
		return batchSamples, nil
	}
	chunk := opts.ChunkSize
	if chunk <= 0 {
		chunk = tsdb.DefaultChunkSize
	}
	if batchSamples == 0 {
		// The fleet default of 512 samples/batch would violate the
		// constraint; pick the largest compliant batch.
		batchSamples = chunk / maxSpan
	}
	// Rejects an explicit violation and a hold span no batch size can
	// satisfy (maxSpan > chunk leaves the auto-sized batch at 0) alike.
	if batchSamples < 1 || maxSpan*batchSamples > chunk {
		return 0, fmt.Errorf(
			"core: chaos hold span %d × %d samples/batch exceeds the store's %d-sample reorder window — late releases would be dropped unaccounted",
			maxSpan, batchSamples, chunk)
	}
	return batchSamples, nil
}

// newPlane stands up the telemetry plant every replay and live run
// streams through: a fleet.Plane over max(1, StreamRacks) racks, built
// from the System's transport knobs (faults, batch size, store options,
// registry). nodes bounds the node IDs streamed (chaos
// hold-span check, queue sizing); prefix and seedBase keep different
// plants' client IDs and monitor noise streams distinct.
func (s *System) newPlane(nodes int, sampleRate float64, prefix string, seedBase int64) (*fleet.Plane, error) {
	batchSamples, err := chaosSafeBatch(s.StreamFaults, nodes, s.StreamBatchSamples, s.StoreOptions)
	if err != nil {
		return nil, err
	}
	racks := max(1, s.StreamRacks)
	p, err := fleet.NewPlane(fleet.PlaneSpec{
		Racks:     racks,
		NodesHint: nodes,
		Gateway: fleet.GatewaySpec{
			SampleRate: sampleRate, ClientPrefix: prefix, SeedBase: seedBase,
			Faults: s.StreamFaults, BatchSamples: batchSamples,
		},
		BridgeFaults: s.BridgeFaults,
		StoreOptions: s.StoreOptions,
		Obs:          s.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("core: telemetry plane (StreamRacks %d): %w", racks, err)
	}
	return p, nil
}

// StreamWindow replays [t0, t1] of the last run's node signals through
// real gateways -> MQTT broker(s) -> aggregator agents in process (a
// fleet.Plane over StreamRacks racks), using a monitor of the given
// output rate (samples/s of virtual time). It verifies the delivered
// energy against the analytic truth and returns streaming statistics.
// nodes limits the replay to the first k nodes (0 = all). When
// BridgeFaults is set, a verification aggregator rides the spine and the
// result carries the spine copy's accounting next to the rack-tier truth.
func (s *System) StreamWindow(t0, t1, sampleRate float64, nodes int) (StreamResult, error) {
	if s.signals == nil {
		return StreamResult{}, errors.New("core: no scheduled run yet")
	}
	if t1 <= t0 {
		return StreamResult{}, errors.New("core: empty window")
	}
	if sampleRate <= 0 {
		return StreamResult{}, errors.New("core: sample rate must be positive")
	}
	if nodes <= 0 || nodes > len(s.signals) {
		nodes = len(s.signals)
	}
	start := time.Now()
	p, err := s.newPlane(nodes, sampleRate, "gw", 1000)
	if err != nil {
		return StreamResult{}, err
	}
	defer func() { _ = p.Close() }()
	agg := p.Aggregator()

	// The spine copy is the object under test only when uplink faults
	// are injected; attach its verification aggregator before any
	// traffic flows so the ledger is complete.
	var spineAgg *telemetry.Aggregator
	if s.BridgeFaults != nil {
		spineAgg = telemetry.NewAggregator()
		ingest, sub, err := spineAgg.AttachParallel(p.SpineAddr(), "core-spine-verify", 0)
		if err != nil {
			return StreamResult{}, err
		}
		defer ingest.Close()
		defer func() { _ = sub.Close() }()
	}

	streams := make([]fleet.NodeStream, nodes)
	for n := 0; n < nodes; n++ {
		streams[n] = fleet.NodeStream{Node: n, Signal: s.signals[n]}
	}
	st, err := p.Stream(context.Background(), streams, t0, t1)
	if err != nil {
		return StreamResult{}, err
	}
	if st.Faults.Corrupted > 0 {
		// Corrupted packets carry no samples, so the fleet's per-node
		// delivery handshake cannot wait on them; a corrupt final packet
		// may still be in flight here. Barrier on the exact injected
		// count so Reordered/UndecodableDropped below are settled; on
		// timeout proceed with whatever arrived (lossy QoS-0 semantics).
		wctx, cancel := context.WithTimeout(context.Background(), fleet.DefaultWaitTimeout)
		_ = agg.WaitDropped(wctx, int(st.Faults.Corrupted))
		cancel()
	}
	s.store = p.Store()
	res := StreamResult{
		Window: t1 - t0, NodesStreamed: nodes, Racks: st.Racks,
		SamplesSent: st.Samples, BatchesSent: st.Batches, PerNode: st.PerNode,
		WireBytesPerSample:     st.WireBytesPerSample(),
		ClientBufReuses:        st.ClientBufReuses,
		Faults:                 st.Faults,
		GatewayRestarts:        st.Restarts,
		Bridge:                 st.Bridge,
		BridgeFaults:           st.BridgeFaults,
		ReorderedBatches:       agg.Reordered(),
		UndecodableDropped:     agg.Dropped(),
		StoreOutOfOrderDropped: p.Store().Stats().OutOfOrderDropped,
	}
	res.MaxEnergyErrPct, err = s.maxEnergyErrPct(agg, t0, t1, nodes)
	if err != nil {
		return StreamResult{}, err
	}
	for r := 0; r < p.Racks(); r++ {
		bs := &p.RackBroker(r).Stats
		res.BrokerPublishes += bs.PublishesOut.Load()
		res.BrokerDropped += bs.Dropped.Load()
		res.BrokerFanoutEncodedOnce += bs.FanoutEncodedOnce.Load()
		res.BrokerBufReuses += bs.BufReuses.Load()
	}

	if spineAgg != nil {
		// The spine copy must account to exactly published − lost +
		// duplicated (the uplink fault ledger), then its energies are
		// checked against the rack-tier ingest.
		want := st.Samples - int(st.BridgeFaults.SamplesLost) + int(st.BridgeFaults.SamplesDuplicated)
		spineTotal := func() int {
			got := 0
			for n := 0; n < nodes; n++ {
				got += spineAgg.Samples(n)
			}
			return got
		}
		deadline := time.Now().Add(fleet.DefaultWaitTimeout)
		for spineTotal() != want && time.Now().Before(deadline) {
			time.Sleep(500 * time.Microsecond)
		}
		if got := spineTotal(); got != want {
			return StreamResult{}, fmt.Errorf(
				"core: spine copy settled at %d samples, want %d (published %d − lost %d + duplicated %d)",
				got, want, st.Samples, st.BridgeFaults.SamplesLost, st.BridgeFaults.SamplesDuplicated)
		}
		res.SpineSamples = want
		for n := 0; n < nodes; n++ {
			ref, err := agg.NodeEnergy(n, t0, t1)
			if err != nil {
				return StreamResult{}, fmt.Errorf("core: node %d rack-tier telemetry: %w", n, err)
			}
			got, err := spineAgg.NodeEnergy(n, t0, t1)
			if err != nil {
				return StreamResult{}, fmt.Errorf("core: node %d spine telemetry: %w", n, err)
			}
			if ref > 0 {
				if errPct := 100 * math.Abs(got-ref) / ref; errPct > res.SpineMaxEnergyErrPct {
					res.SpineMaxEnergyErrPct = errPct
				}
			}
		}
	}
	if si := s.obsSelfIngest(); si != nil {
		si.Record(t1)
	}
	res.WallClock = time.Since(start)
	return res, nil
}

// maxEnergyErrPct verifies the aggregator's per-node energies against
// the analytic truth over [t0, t1] and returns the worst deviation.
func (s *System) maxEnergyErrPct(agg *telemetry.Aggregator, t0, t1 float64, nodes int) (float64, error) {
	worst := 0.0
	for n := 0; n < nodes; n++ {
		got, err := agg.NodeEnergy(n, t0, t1)
		if err != nil {
			return 0, fmt.Errorf("core: node %d telemetry: %w", n, err)
		}
		want, err := s.signals[n].Energy(t0, t1)
		if err != nil {
			return 0, err
		}
		if want > 0 {
			if errPct := 100 * math.Abs(got-want) / want; errPct > worst {
				worst = errPct
			}
		}
	}
	return worst, nil
}

// JobEnergyFromTelemetry recomputes one job's ETS from a telemetry replay
// of its interval over its own nodes (experiment E14's cross-check),
// through the same plane and transport knobs as StreamWindow, returning
// telemetry and ledger values.
func (s *System) JobEnergyFromTelemetry(jobID int, sampleRate float64) (telemetryJ, ledgerJ float64, err error) {
	if s.lastResult == nil {
		return 0, 0, errors.New("core: no scheduled run yet")
	}
	rec, err := s.Ledger.Job(jobID)
	if err != nil {
		return 0, 0, err
	}
	nodes, ok := s.assignments[jobID]
	if !ok {
		return 0, 0, fmt.Errorf("core: job %d has no assignment", jobID)
	}
	// Any cluster node can be in the job, so the plane is sized for all.
	p, err := s.newPlane(len(s.signals), sampleRate, "jgw", 2000)
	if err != nil {
		return 0, 0, err
	}
	defer func() { _ = p.Close() }()

	streams := make([]fleet.NodeStream, 0, len(nodes))
	for _, n := range nodes {
		streams = append(streams, fleet.NodeStream{Node: n, Signal: s.signals[n]})
	}
	if _, err := p.Stream(context.Background(), streams, rec.StartAt, rec.EndAt); err != nil {
		return 0, 0, err
	}
	db := p.Store()
	s.store = db
	// Build the telemetry-derived ledger entry straight from the store's
	// query engine and compare its energy against the analytic record.
	tRec, err := accounting.RecordFromSource(db, rec.JobID, rec.User, rec.App,
		nodes, rec.StartAt, rec.EndAt)
	if err != nil {
		return 0, 0, err
	}
	return tRec.EnergyJ, rec.EnergyJ, nil
}
