package core

import (
	"strings"
	"testing"

	"davide/internal/fleet"
	"davide/internal/obs"
	"davide/internal/scenario"
	"davide/internal/sched"
	"davide/internal/workload"
)

// TestRunLiveRefusesCapBelowIdle: a per-node cap share below idle draw
// admits no operating point, so RunLive refuses it before the telemetry
// plane exists — no broker registers a series — instead of streaming
// toward the controller's tick limit.
func TestRunLiveRefusesCapBelowIdle(t *testing.T) {
	s, err := NewSystem(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Obs = obs.NewRegistry()
	_, err = s.RunLive(scenarioObsJobs(t, 11), LiveConfig{
		Nodes: 4,
		Sched: sched.ControllerConfig{Config: sched.Config{PowerCapW: 4 * 100}},
	})
	if err == nil || !strings.Contains(err.Error(), "below idle power") {
		t.Fatalf("cap of 100 W/node: err = %v, want a below-idle refusal", err)
	}
	if snap := s.Obs.Text(true); strings.Contains(snap, "davide_broker_") {
		t.Errorf("a broker started before the refusal:\n%s", snap)
	}
	if s.Store() != nil {
		t.Error("the refused run left a telemetry store behind")
	}
}

// TestRackReportFoldsControllerReads: the per-rack report is a fold of
// the controller's own per-tick reads, not a second capper. Under
// split-brain chaos over two racks every rack tick is either a step or
// a hold, a hold needs at least one stale member read and each stale
// read holds its rack, and the capped FIFO run overshoots. A feed that
// stops at the first silent member without recording the later members'
// sample counts can miss a later silence of theirs and break the upper
// stale-read bound (here the split-brain partitions hit a rack's odd
// members together, so the counts agree). Not skipped under -short: it is
// the short suite's stale-hold coverage.
func TestRackReportFoldsControllerReads(t *testing.T) {
	const nodes, rackSize = 8, 4
	s, err := NewSystem(nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fleet.ChaosPreset(fleet.ChaosSplitBrain, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.StreamFaults = plan
	s.StreamBatchSamples = 16
	res, err := s.RunLive(scenarioObsJobs(t, 11), LiveConfig{
		Nodes:      nodes,
		SampleRate: 4,
		RackSize:   rackSize,
		Sched: sched.ControllerConfig{
			Admission: sched.AdmitFIFO,
			Config:    sched.Config{PowerCapW: nodes * 500},
			TickS:     15,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Racks) != nodes/rackSize {
		t.Fatalf("%d racks reported, want %d", len(res.Racks), nodes/rackSize)
	}
	held, violations := 0, 0
	for _, r := range res.Racks {
		if r.Steps+r.Held != res.Ticks {
			t.Errorf("rack %d: %d steps + %d held != %d ticks", r.Rack, r.Steps, r.Held, res.Ticks)
		}
		held += r.Held
		violations += r.Violations
	}
	if held == 0 {
		t.Error("split-brain never held a rack")
	}
	if res.StaleReads < held || res.StaleReads > held*rackSize {
		t.Errorf("%d stale reads outside [%d, %d] for %d held rack ticks",
			res.StaleReads, held, held*rackSize, held)
	}
	if violations == 0 || res.MaxOverPct == 0 {
		t.Fatalf("capped FIFO run never overshot (%d rack violations, %.2f%% max over)", violations, res.MaxOverPct)
	}
}

// TestCapTrackHonoursIdleFloor: the post-hoc overlay steps the
// controller's own cap tracker, idle floor included. The dr-ramp shed
// targets 80 % of a nominal cap set at the machine's idle draw / 0.85,
// below the 4 × 360 W idle floor, so the controller holds the floor for
// the whole phase and the overlay's shed cap must be the floor too. An
// overlay that replays the ramp without the floor scores the phase
// against a 1355.9 W cap the controller never enforced.
func TestCapTrackHonoursIdleFloor(t *testing.T) {
	const nodes = 4
	s, err := NewSystem(nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Get(scenario.ScenarioDRRamp)
	if err != nil {
		t.Fatal(err)
	}
	floorW := nodes * s.IdleNodePowerW
	res, err := s.RunScenario(sc, 3, scenarioObsJobs(t, 3), LiveConfig{
		Nodes:      nodes,
		SampleRate: 4,
		Sched: sched.ControllerConfig{
			Admission: sched.AdmitFIFO,
			Config:    sched.Config{PowerCapW: floorW / 0.85, ReactiveCapping: true},
			TickS:     15,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range res.PhaseOvershoot {
		if ph.MeanCapW < floorW || ph.Phase == "shed" && ph.MeanCapW != floorW {
			t.Errorf("phase %s: mean cap %.1f W, want the %.0f W idle floor or above (exactly it in shed)",
				ph.Phase, ph.MeanCapW, floorW)
		}
	}
}

// TestRegistryMirrorsControllerCounts: the davide_sched_* registry
// counters are a fold of the controller's tick record, so after a live
// run each equals its ControllerResult count, and a second run on the
// same System adds its own counts on top. The run is split-brain chaos
// under a power-aware cap with brownout armed, so stale reads, refusals
// and brownout transitions all move. Not skipped under -short.
func TestRegistryMirrorsControllerCounts(t *testing.T) {
	const nodes = 8
	s, err := NewSystem(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Obs = obs.NewRegistry()
	plan, err := fleet.ChaosPreset(fleet.ChaosSplitBrain, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.StreamFaults = plan
	s.StreamBatchSamples = 16
	run := func() sched.Counts {
		t.Helper()
		res, err := s.RunLive(scenarioObsJobs(t, 11), LiveConfig{
			Nodes:      nodes,
			SampleRate: 4,
			Sched: sched.ControllerConfig{
				Admission: sched.AdmitPowerAware,
				Config: sched.Config{PowerCapW: nodes * 1000,
					Estimator: func(j workload.Job) (float64, error) { return j.TruePowerPerNode, nil }},
				TickS:             15,
				BrownoutStaleFrac: 0.25,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.StaleReads == 0 || res.RefusedAdmissions == 0 || res.BrownoutTransitions == 0 {
			t.Fatalf("run moved too little: %+v", res.Counts)
		}
		return res.Counts
	}
	check := func(want sched.Counts) {
		t.Helper()
		for name, v := range map[string]int{
			"davide_sched_ticks_total":                want.Ticks,
			"davide_sched_fresh_reads_total":          want.FreshReads,
			"davide_sched_stale_reads_total":          want.StaleReads,
			"davide_sched_refused_admissions_total":   want.RefusedAdmissions,
			"davide_sched_measure_failures_total":     want.MeasureFailures,
			"davide_sched_brownout_transitions_total": want.BrownoutTransitions,
		} {
			if got := s.Obs.CounterOf(name).Load(); got != int64(v) {
				t.Errorf("%s = %d, want %d", name, got, v)
			}
		}
	}
	a := run()
	check(a)
	b := run()
	check(sched.Counts{
		Ticks:               a.Ticks + b.Ticks,
		FreshReads:          a.FreshReads + b.FreshReads,
		StaleReads:          a.StaleReads + b.StaleReads,
		RefusedAdmissions:   a.RefusedAdmissions + b.RefusedAdmissions,
		MeasureFailures:     a.MeasureFailures + b.MeasureFailures,
		BrownoutTransitions: a.BrownoutTransitions + b.BrownoutTransitions,
	})
}
