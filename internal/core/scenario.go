package core

import (
	"fmt"

	"davide/internal/scenario"
	"davide/internal/sched"
	"davide/internal/workload"
)

// RunScenario drives the closed-loop control plane (RunLive) under a
// named scenario: the workload's arrivals are reshaped by the
// scenario's arrival process, the controller tracks the scenario's cap
// trajectory under its ramp limit with brownout armed, thermal events
// throttle node power through per-node DVFS die models, and the
// scenario's phase-windowed chaos stack runs on the gateway links.
// Everything is seeded: same scenario + seed + jobs + config ⇒ a
// bit-identical result.

// ScenarioResult is one scenario run's outcome: the live run plus its
// per-phase cap-tracking overlay.
type ScenarioResult struct {
	LiveResult

	// Scenario is the configuration's name.
	Scenario string
	// PhaseOvershoot scores true machine power against the tracked
	// ramp-limited cap per report phase (empty when the run is
	// uncapped). It is folded from the controller's tick record, so its
	// worst MaxOverPct is the run's MaxOverPct.
	PhaseOvershoot []PhaseOvershoot
}

// PhaseOvershoot reports one report phase's cap tracking.
type PhaseOvershoot struct {
	Phase  string
	T0, T1 float64
	// Ticks is the number of ticks starting in the phase; OverTicks how
	// many of them had true power above the tracked cap.
	Ticks     int
	OverTicks int
	// MaxOverW and MaxOverPct are the worst overshoot above the tracked
	// cap in watts and in percent of the cap of that moment (each its
	// own maximum: under a moving cap they can come from different
	// ticks); MeanOverW is the mean positive overshoot over all phase
	// ticks.
	MaxOverW   float64
	MaxOverPct float64
	MeanOverW  float64
	// MeanCapW is the mean tracked cap across the phase — the overlay
	// baseline.
	MeanCapW float64
	// MeanPowerW is the mean true machine power across the phase.
	MeanPowerW float64
}

// phaseFold accumulates the overlay one tick at a time; means turns
// its sums into means once the run is over.
type phaseFold []PhaseOvershoot

// add scores the tick starting at t0: true power trueW against the
// tracked cap capW, the controller's own violation test.
func (f phaseFold) add(t0, capW, trueW float64) {
	over := trueW - capW
	for i := range f {
		o := &f[i]
		if t0 < o.T0 || t0 >= o.T1 {
			continue
		}
		o.Ticks++
		o.MeanCapW += capW
		o.MeanPowerW += trueW
		if over > 0 {
			o.OverTicks++
			o.MeanOverW += over
			o.MaxOverW = max(o.MaxOverW, over)
			o.MaxOverPct = max(o.MaxOverPct, 100*over/capW)
		}
	}
}

func (f phaseFold) means() {
	for i := range f {
		if n := float64(f[i].Ticks); n > 0 {
			f[i].MeanCapW /= n
			f[i].MeanPowerW /= n
			f[i].MeanOverW /= n
		}
	}
}

// RunScenario executes the workload under the scenario on the live
// control plane. cfg is the base live configuration; the scenario
// overlays its cap schedule, ramp limit, brownout threshold, thermal
// perturbation and chaos stack on top of it (cfg's own
// Sched.CapSchedule must be unset — the scenario owns the trajectory).
// The System's StreamFaults are saved and restored around the run.
func (s *System) RunScenario(sc *scenario.Scenario, seed int64, jobs []workload.Job, cfg LiveConfig) (*ScenarioResult, error) {
	if sc == nil {
		return nil, fmt.Errorf("core: nil scenario")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sched.CapSchedule != nil {
		return nil, fmt.Errorf("core: scenario %s owns the cap schedule; clear Sched.CapSchedule", sc.Name)
	}

	cfg = s.withDefaults(cfg)
	nodes, idleW, tickS := cfg.Nodes, cfg.Sched.IdleNodePowerW, cfg.Sched.TickS

	// Workload side: reshape arrivals through the scenario's process.
	warped, err := sc.RetimeArrivals(jobs)
	if err != nil {
		return nil, err
	}

	// Fault side: the scenario's phase-windowed chaos stack replaces
	// the System's stream faults for the duration of the run.
	planner, err := sc.BuildChaos(seed)
	if err != nil {
		return nil, err
	}
	if planner != nil {
		savedFaults, savedBatch := s.StreamFaults, s.StreamBatchSamples
		defer func() { s.StreamFaults, s.StreamBatchSamples = savedFaults, savedBatch }()
		s.StreamFaults = planner
		if s.StreamBatchSamples == 0 {
			// Small batches bound what one held/dropped packet can hide
			// (the E19 chaos geometry).
			s.StreamBatchSamples = 16
		}
	}

	// Controller side: cap trajectory, ramp tracking, brownout.
	nominal := cfg.Sched.PowerCapW
	cfg.Sched.CapSchedule = sc.CapSchedule(nominal)
	cfg.Sched.CapRampWPerS = sc.RampWPerS
	cfg.Sched.BrownoutStaleFrac = sc.BrownoutStaleFrac

	// Overlay side: fold each tick's true power against its tracked
	// cap.
	var fold phaseFold
	if nominal > 0 {
		for _, ph := range sc.ReportPhases() {
			fold = append(fold, PhaseOvershoot{Phase: ph.Name, T0: ph.T0, T1: ph.T1})
		}
		cfg.afterTick = func(tk *sched.Tick) { fold.add(tk.T1-tickS, tk.CapW, tk.TrueW) }
	}

	// Thermal side: per-node dies sized for this machine's loaded
	// draw; the perturber rides the controller's Perturb hook ahead of
	// any caller-supplied perturbation.
	if len(sc.Thermal) > 0 {
		refLoadW := 0.0
		n := 0
		for _, j := range jobs {
			if j.TruePowerPerNode > 0 {
				refLoadW += j.TruePowerPerNode
				n++
			}
		}
		if n > 0 {
			refLoadW /= float64(n)
		}
		if refLoadW <= idleW && nominal > 0 {
			refLoadW = nominal / float64(nodes)
		}
		if refLoadW <= idleW {
			return nil, fmt.Errorf("core: scenario %s needs a loaded-node reference power above idle (%g W) to size thermal dies", sc.Name, idleW)
		}
		perturber, err := scenario.NewThermalPerturber(nodes, sc.Thermal, idleW, refLoadW)
		if err != nil {
			return nil, err
		}
		if inner := cfg.Perturb; inner != nil {
			cfg.Perturb = func(t0, t1 float64, levels []float64) {
				perturber.Perturb(t0, t1, levels)
				inner(t0, t1, levels)
			}
		} else {
			cfg.Perturb = perturber.Perturb
		}
	}

	live, err := s.RunLive(warped, cfg)
	if err != nil {
		return nil, err
	}

	fold.means()
	return &ScenarioResult{LiveResult: *live, Scenario: sc.Name, PhaseOvershoot: fold}, nil
}
