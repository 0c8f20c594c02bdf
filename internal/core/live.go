package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"davide/internal/accounting"
	"davide/internal/chaos"
	"davide/internal/fleet"
	"davide/internal/obs"
	"davide/internal/predictor"
	"davide/internal/sched"
	"davide/internal/tsdb"
	"davide/internal/units"
	"davide/internal/workload"
)

// This file closes the paper's loop at system level: RunLive drives the
// sched.Controller against a *real* telemetry plane — each control tick
// the cluster's power levels go out through per-node gateways over MQTT
// into the compressed store, and the scheduler's admission, reactive
// capping and online predictor retraining read the measured values back
// out. The controller's reactive speed factor is the one capper; the
// per-rack report is folded from the same reads — including their
// degradations: under chaos presets the controller must hold the cap on
// stale, lossy measurements, and a rack with a silent member is held.

// LiveConfig configures one closed-loop control-plane run. Transport
// knobs (racks, faults, batch size, store options) come from the System
// fields a StreamWindow replay uses.
type LiveConfig struct {
	// Sched is the controller configuration; Nodes is overridden with
	// the live machine size below.
	Sched sched.ControllerConfig
	// Nodes is the machine size: one gateway per node (0 = whole
	// cluster; must not exceed the cluster).
	Nodes int
	// SampleRate is each gateway's telemetry rate in samples per second
	// of virtual time (default 4; at least 2 samples must fit one tick).
	SampleRate float64
	// RackSize groups nodes for the per-rack report (default: the
	// cluster's rack width).
	RackSize int
	// Perturb, when non-nil, mutates each tick's per-node power levels
	// before they are streamed — the scenario engine's thermal-DVFS
	// seam (see sched.Hooks.Perturb).
	Perturb func(t0, t1 float64, levels []float64)
	// OnPlant, when non-nil, is called once the telemetry plant and
	// controller are built, just before the run starts — the seam the
	// energy query service uses to bind its backend to a *live* replay.
	// Everything handed over is safe for concurrent use while the run
	// progresses (the store and ledger are internally locked;
	// Assignments snapshots under the controller's assignment lock).
	OnPlant func(LivePlant)

	// afterTick, when non-nil, folds each tick record after RunLive's
	// own rack and registry folds: RunScenario's per-phase overlay.
	afterTick func(*sched.Tick)
}

// LivePlant is the live run's queryable surface, handed to
// LiveConfig.OnPlant before the first tick.
type LivePlant struct {
	// Store is the telemetry store the run fills.
	Store *tsdb.DB
	// Ledger is the controller's accounting ledger (records appear as
	// jobs complete and settle).
	Ledger *accounting.Ledger
	// Assignments snapshots job → concrete nodes, complete for every
	// started job at the moment of the call.
	Assignments func() map[int][]int
	// Nodes and RackSize describe the live machine's geometry.
	Nodes    int
	RackSize int
}

// RackStats reports one rack's run, folded from the controller's
// per-tick reads.
type RackStats struct {
	Rack      int
	FirstNode int
	Nodes     int
	// CapW is the rack's per-node cap share (0 = uncapped).
	CapW float64
	// Steps / Held / Violations: ticks every member read fresh, ticks
	// held because some member was stale (the fail-safe path), and fresh
	// ticks whose members' mean power exceeded the share.
	Steps      int
	Held       int
	Violations int
}

// LiveResult is one closed-loop run's full outcome.
type LiveResult struct {
	sched.ControllerResult

	// Telemetry-plane aggregates over every tick's fan-out.
	SamplesSent        int
	BatchesSent        int
	WireBytesPerSample float64
	BrokerPublishes    int64
	BrokerDropped      int64
	Faults             chaos.Counters
	GatewayRestarts    int
	ReorderedBatches   int
	UndecodableDropped int
	// StoreOutOfOrderDropped counts samples that fell behind the store's
	// sealed horizon (must stay zero under every preset; see E18/E19).
	StoreOutOfOrderDropped int
	WallClock              time.Duration

	// Racks reports each rack of RackSize nodes.
	Racks []RackStats
	// JobPhases is the measured §IV phase view of every completed job,
	// rebuilt from the store (accounting.Phases); it must agree with
	// the controller's accounting ledger.
	JobPhases map[int]accounting.Phase
	// Assignments maps job ID to the concrete nodes it ran on.
	Assignments map[int][]int
	// Ledger is the run's telemetry-derived accounting ledger.
	Ledger *accounting.Ledger
}

// EnergyErrPct is |measured − true| machine energy in percent of the
// true energy (0 for a run that drew none).
func (r *LiveResult) EnergyErrPct() float64 {
	if r.EnergyJ <= 0 {
		return 0
	}
	return 100 * math.Abs(r.MeasuredEnergyJ-r.EnergyJ) / r.EnergyJ
}

// withDefaults returns cfg with the live run's defaults in its unset
// fields: the pilot's node count (copied to Sched.Nodes), the System's
// idle draw and a 30 s tick. RunLive and RunScenario both resolve them
// here, so the scenario overlay places each tick by the tick RunLive ran.
func (s *System) withDefaults(cfg LiveConfig) LiveConfig {
	if cfg.Nodes <= 0 {
		cfg.Nodes = PilotNodes
	}
	cfg.Sched.Nodes = cfg.Nodes
	if cfg.Sched.IdleNodePowerW == 0 {
		cfg.Sched.IdleNodePowerW = s.IdleNodePowerW
	}
	if cfg.Sched.TickS == 0 {
		cfg.Sched.TickS = 30
	}
	return cfg
}

// RunLive executes the workload on the closed-loop control plane and
// leaves the telemetry store queryable via Store().
func (s *System) RunLive(jobs []workload.Job, cfg LiveConfig) (*LiveResult, error) {
	cfg = s.withDefaults(cfg)
	nodes, scfg := cfg.Nodes, cfg.Sched
	if nodes > PilotNodes {
		return nil, fmt.Errorf("core: live machine of %d nodes exceeds the %d-node cluster", nodes, PilotNodes)
	}
	rate := cfg.SampleRate
	if rate == 0 {
		rate = 4
	}
	if !(rate*scfg.TickS >= 2) { // NaN fails too
		return nil, fmt.Errorf("core: sample rate %g cannot fill a %g s tick with the 2 samples a gateway window needs", rate, scfg.TickS)
	}
	// Wire the online-retraining predictor (retrained every 8
	// completions) when the caller didn't bring an estimator of their own
	// (power-aware built-in admission or any power-aware Strategy).
	if scfg.PowerAware() && scfg.Trainer == nil && scfg.Estimator == nil {
		if s.Predictor == nil {
			return nil, errors.New("core: power-aware admission needs a trained predictor (train the system or set an estimator)")
		}
		online, err := predictor.NewOnline(s.Predictor, s.trainJobs, 8, 0)
		if err != nil {
			return nil, err
		}
		scfg.Trainer = online
	}

	// A per-node share below idle draw admits no operating point: refuse
	// it before anything listens, or a power-aware run would spin toward
	// the controller's tick limit.
	idle := units.Watt(s.IdleNodePowerW)
	share := 0.0
	if scfg.PowerCapW > 0 {
		share = scfg.PowerCapW / float64(nodes)
		if units.Watt(share) < idle {
			return nil, fmt.Errorf("core: power cap %v per node is below idle power %v", units.Watt(share), idle)
		}
	}
	rackSize := cfg.RackSize
	if rackSize <= 0 {
		rackSize = PilotRackSize
	}
	var racks []RackStats
	for first := 0; first < nodes; first += rackSize {
		racks = append(racks, RackStats{
			Rack: len(racks), FirstNode: first, Nodes: min(rackSize, nodes-first), CapW: share,
		})
	}

	start := time.Now()
	pl, err := s.newPlane(nodes, rate, "live", 3000)
	if err != nil {
		return nil, err
	}
	defer func() { _ = pl.Close() }()
	db, agg := pl.Store(), pl.Aggregator()

	// Mirror the controller's counts and the per-rack fail-safe holds
	// (one per held rack tick) into the deterministic snapshot;
	// unregistered without a registry. A sync adds each count's increase
	// since the last one, so runs sharing a registry accumulate.
	counter := func(name string) *obs.Counter {
		if s.Obs == nil {
			return new(obs.Counter)
		}
		return s.Obs.CounterOf(name)
	}
	heldCtr := counter("davide_cap_held_total")
	var schedCtrs [len(schedSeries)]*obs.Counter
	for i, name := range schedSeries {
		schedCtrs[i] = counter(name)
	}
	var synced [len(schedSeries)]int
	syncCounts := func(c sched.Counts) {
		for i, v := range schedValues(c) {
			schedCtrs[i].Add(int64(v - synced[i]))
			synced[i] = v
		}
	}

	res := &LiveResult{}
	var faultsTotal chaos.Counters
	restarts := 0
	var wireBytes int64
	hooks := sched.Hooks{
		Perturb: cfg.Perturb,
		StreamTick: func(t0, t1 float64, levels []float64) error {
			st, err := pl.StreamLevels(context.Background(), levels, t0, t1)
			if err != nil {
				return err
			}
			res.SamplesSent += st.Samples
			res.BatchesSent += st.Batches
			wireBytes += st.WireBytes
			faultsTotal.Add(st.Faults)
			restarts += st.Restarts
			if faultsTotal.Corrupted > 0 {
				// Corrupt packets carry no samples, so they escape the
				// delivery handshake; barrier on the cumulative injected
				// count before the controller reads the window back.
				wctx, cancel := context.WithTimeout(context.Background(), fleet.DefaultWaitTimeout)
				_ = agg.WaitDropped(wctx, int(faultsTotal.Corrupted))
				cancel()
			}
			return nil
		},
		AfterTick: func(tk *sched.Tick) error {
			syncCounts(tk.Counts)
			if tk.CapW > 0 {
				// The share tracks the effective cap (under a
				// CapSchedule the ramp-limited one, not the nominal
				// share computed at setup), clamped to the node idle
				// floor (a cap below idle is physically unenforceable).
				share = float64(max(units.Watt(tk.CapW/float64(nodes)), idle))
			}
			for i := range racks {
				rk := &racks[i]
				rk.CapW = share
				end := rk.FirstNode + rk.Nodes
				// A partial mean would underestimate the rack: any stale
				// member holds the whole rack tick.
				if slices.Contains(tk.Fresh[rk.FirstNode:end], false) {
					rk.Held++
					heldCtr.Inc()
					continue
				}
				sum := 0.0
				for _, w := range tk.Watts[rk.FirstNode:end] {
					sum += w
				}
				rk.Steps++
				if share > 0 && sum/float64(rk.Nodes) > share {
					rk.Violations++
				}
			}
			if cfg.afterTick != nil {
				cfg.afterTick(tk)
			}
			return nil
		},
	}
	ctrl, err := sched.NewController(scfg, jobs, db, hooks)
	if err != nil {
		return nil, err
	}
	if cfg.OnPlant != nil {
		cfg.OnPlant(LivePlant{
			Store:       db,
			Ledger:      ctrl.Ledger(),
			Assignments: ctrl.Assignments,
			Nodes:       nodes,
			RackSize:    rackSize,
		})
	}
	cres, err := ctrl.Run()
	if err != nil {
		return nil, err
	}
	syncCounts(cres.Counts) // completions measured in the end-of-run flush
	s.store = db

	res.ControllerResult = *cres
	if res.SamplesSent > 0 {
		res.WireBytesPerSample = float64(wireBytes) / float64(res.SamplesSent)
	}
	for r := 0; r < pl.Racks(); r++ {
		bs := &pl.RackBroker(r).Stats
		res.BrokerPublishes += bs.PublishesOut.Load()
		res.BrokerDropped += bs.Dropped.Load()
	}
	res.Faults = faultsTotal
	res.GatewayRestarts = restarts
	res.ReorderedBatches = agg.Reordered()
	res.UndecodableDropped = agg.Dropped()
	res.StoreOutOfOrderDropped = db.Stats().OutOfOrderDropped
	res.WallClock = time.Since(start)
	res.Racks = racks
	// The measured §IV phase view: every completed job rebuilt from the
	// store the run just filled.
	res.Ledger = ctrl.Ledger()
	res.Assignments = ctrl.Assignments()
	res.JobPhases = make(map[int]accounting.Phase, len(jobs))
	for id, nn := range res.Assignments {
		rec, err := ctrl.Ledger().Job(id)
		if err != nil {
			continue // measure failure: the record was never built
		}
		ph, err := accounting.Phases(db, nn, []string{rec.App}, []float64{rec.StartAt, rec.EndAt})
		if err != nil {
			continue
		}
		res.JobPhases[id] = ph[0]
	}
	// Fold the measured records into the system ledger so PerUser /
	// billing queries see the live run (duplicate IDs are skipped:
	// a prior batch run may have accounted the same workload).
	for id := range res.Assignments {
		if rec, err := ctrl.Ledger().Job(id); err == nil {
			_ = s.Ledger.Add(rec)
		}
	}
	return res, nil
}

// schedSeries names the registry counters that mirror the controller's
// counts, in schedValues order.
var schedSeries = [...]string{
	"davide_sched_ticks_total",
	"davide_sched_fresh_reads_total",
	"davide_sched_stale_reads_total",
	"davide_sched_refused_admissions_total",
	"davide_sched_measure_failures_total",
	"davide_sched_brownout_transitions_total",
}

// schedValues lists the mirrored counts in schedSeries order.
func schedValues(c sched.Counts) [len(schedSeries)]int {
	return [...]int{c.Ticks, c.FreshReads, c.StaleReads,
		c.RefusedAdmissions, c.MeasureFailures, c.BrownoutTransitions}
}
