package core

import (
	"fmt"
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
			Strategy: sched.NewFIFOStrategy(),
			Config:   sched.Config{PowerCapW: nodes * 500},
			TickS:    15,
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

// TestOverlayHonoursIdleFloor: the per-phase overlay scores against
// the cap the controller tracked, idle floor included. The dr-ramp shed
// targets 80 % of a nominal cap set at the machine's idle draw / 0.85,
// below the 4 × 360 W idle floor, so the controller holds the floor for
// the whole phase and the overlay's shed cap must be the floor too. An
// overlay that replays the ramp without the floor scores the phase
// against a 1355.9 W cap the controller never enforced.
func TestOverlayHonoursIdleFloor(t *testing.T) {
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
			Strategy: sched.NewFIFOStrategy(),
			Config:   sched.Config{PowerCapW: floorW / 0.85, ReactiveCapping: true},
			TickS:    15,
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

// TestScenarioOverlayFoldsControllerTicks: the per-phase overlay is a
// fold of the controller's tick record, like the rack report and the
// registry mirror, so on every registered scenario its phases split the
// run's ticks exactly, its over-cap ticks are the controller's
// cap-violation ticks and its worst phase is the controller's
// MaxOverPct, bit for bit. If this fails, the fold sees a different
// tick set or cap than the controller scores. The capped FIFO run
// (nominal cap at idle / 0.3, so the scenario ramps stay above the idle
// floor) overshoots on loaded ticks. Not skipped under -short.
func TestScenarioOverlayFoldsControllerTicks(t *testing.T) {
	const nodes = 4
	for _, name := range scenario.Names() {
		t.Run(name, func(t *testing.T) {
			s, err := NewSystem(nil)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scenario.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			const tickS = 15
			res, err := s.RunScenario(sc, 3, scenarioObsJobs(t, 3), LiveConfig{
				Nodes:      nodes,
				SampleRate: 4,
				Sched: sched.ControllerConfig{
					Strategy: sched.NewFIFOStrategy(),
					Config:   sched.Config{PowerCapW: nodes * s.IdleNodePowerW / 0.3, ReactiveCapping: true},
					TickS:    tickS,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			ticks, over, worst := 0, 0, 0.0
			for _, ph := range res.PhaseOvershoot {
				ticks += ph.Ticks
				over += ph.OverTicks
				worst = max(worst, ph.MaxOverPct)
			}
			if ticks != res.Ticks {
				t.Errorf("phases score %d ticks, the controller ran %d", ticks, res.Ticks)
			}
			if want := int(res.CapViolationSec / tickS); over != want || over == 0 {
				t.Errorf("phases count %d over-cap ticks, the controller %d (%g s)", over, want, res.CapViolationSec)
			}
			if worst != res.MaxOverPct {
				t.Errorf("worst phase overshoot %v%%, controller MaxOverPct %v%%", worst, res.MaxOverPct)
			}
		})
	}
}

// TestScenarioTickDefault runs one scenario twice, with TickS left at 0
// and with RunLive's 30 s default set, and wants the same per-phase
// overlay bit for bit: the overlay must place each tick by the tick the
// run used. If this fails it would indicate that RunScenario and RunLive
// resolve the tick default apart.
func TestScenarioTickDefault(t *testing.T) {
	const nodes = 4
	sc, err := scenario.Get("dr-ramp")
	if err != nil {
		t.Fatal(err)
	}
	var overlays [2]string // %v prints each float's shortest exact form
	for i, tickS := range []float64{0, 30} {
		s, err := NewSystem(nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunScenario(sc, 3, scenarioObsJobs(t, 3), LiveConfig{
			Nodes:      nodes,
			SampleRate: 4,
			Sched: sched.ControllerConfig{
				Strategy: sched.NewFIFOStrategy(),
				Config:   sched.Config{PowerCapW: nodes * s.IdleNodePowerW / 0.3, ReactiveCapping: true},
				TickS:    tickS,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PhaseOvershoot) == 0 {
			t.Fatalf("TickS %g: no overlay", tickS)
		}
		overlays[i] = fmt.Sprintf("%+v", res.PhaseOvershoot)
	}
	if overlays[0] != overlays[1] {
		t.Errorf("TickS 0 scores %s,\nTickS 30 scores %s", overlays[0], overlays[1])
	}
}

// TestPhaseFoldArithmetic checks the overlay fold by hand: a cap that
// ramps 1200 → 600 W in 100 W steps from t = 100 under a flat 900 W
// draw, then a phase whose worst watts and worst percent fall on
// different ticks, then a tick outside every phase.
func TestPhaseFoldArithmetic(t *testing.T) {
	f := phaseFold{
		{Phase: "pre", T0: 0, T1: 100},
		{Phase: "shed", T0: 100, T1: 400},
		{Phase: "mixed", T0: 400, T1: 420},
	}
	capW := 1200.0
	for t0 := 0.0; t0 < 400; t0 += 10 {
		if t0 >= 100 {
			capW = max(capW-100, 600)
		}
		f.add(t0, capW, 900)
	}
	f.add(400, 1000, 1200) // 200 W over, 20 %
	f.add(410, 500, 650)   // 150 W over, 30 %
	f.add(500, 500, 5000)  // outside every phase
	f.means()

	want := []PhaseOvershoot{
		{Phase: "pre", T0: 0, T1: 100, Ticks: 10, MeanCapW: 1200, MeanPowerW: 900},
		// Caps 1100, 1000, 900, 800, 700, then 600 for 25 ticks: over
		// from the fourth tick on, 100 + 200 + 25 × 300 W over 30 ticks.
		{Phase: "shed", T0: 100, T1: 400, Ticks: 30, OverTicks: 27,
			MaxOverW: 300, MaxOverPct: 50, MeanOverW: 260, MeanCapW: 650, MeanPowerW: 900},
		{Phase: "mixed", T0: 400, T1: 420, Ticks: 2, OverTicks: 2,
			MaxOverW: 200, MaxOverPct: 30, MeanOverW: 175, MeanCapW: 750, MeanPowerW: 925},
	}
	for i := range want {
		if f[i] != want[i] {
			t.Errorf("phase %s:\n got %+v\nwant %+v", want[i].Phase, f[i], want[i])
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
				Strategy: sched.NewPowerAwareStrategy(),
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
