package core

import (
	"fmt"
	"math"

	"davide/internal/scenario"
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

// ScenarioResult is one scenario run's outcome: the live run plus the
// post-hoc cap-tracking overlay and the energy-measurement error the
// scenario's documented bounds are asserted against.
type ScenarioResult struct {
	LiveResult

	// Scenario is the configuration's name.
	Scenario string
	// PhaseOvershoot scores measured machine power against the
	// reconstructed ramp-limited cap per report phase (empty when the
	// run is uncapped).
	PhaseOvershoot []scenario.PhaseOvershoot
	// EnergyErrPct is |measured − true| machine energy in percent of
	// the true energy.
	EnergyErrPct float64
}

// WorstOverPct returns the worst per-phase cap overshoot in percent
// of the tracked cap (0 when uncapped or never over).
func (r *ScenarioResult) WorstOverPct() float64 {
	worst := 0.0
	for _, ph := range r.PhaseOvershoot {
		if ph.MaxOverPct > worst {
			worst = ph.MaxOverPct
		}
	}
	return worst
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

	nodes := cfg.Nodes
	if nodes <= 0 {
		nodes = PilotNodes
	}
	idleW := cfg.Sched.IdleNodePowerW
	if idleW == 0 {
		idleW = s.IdleNodePowerW
	}
	tickS := cfg.Sched.TickS
	if tickS == 0 {
		tickS = 30 // RunLive's default
	}

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

	res := &ScenarioResult{LiveResult: *live, Scenario: sc.Name}
	if live.EnergyJ > 0 {
		res.EnergyErrPct = 100 * math.Abs(live.MeasuredEnergyJ-live.EnergyJ) / live.EnergyJ
	}
	if nominal > 0 {
		overs, err := scenario.CapTrack(s.Store(), nodes, nominal, float64(nodes)*idleW, tickS, live.Makespan, sc)
		if err != nil {
			return nil, err
		}
		res.PhaseOvershoot = overs
	}
	return res, nil
}
