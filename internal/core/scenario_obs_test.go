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

// scenarioObsJobs is a compact, fully seeded workload for the
// instrumented scenario runs: short jobs arriving fast enough that the
// run spans the scenario's chaos and cap windows.
func scenarioObsJobs(t *testing.T, seed int64) []workload.Job {
	t.Helper()
	cfg := workload.DefaultGeneratorConfig(seed)
	cfg.MaxNodes = 3
	cfg.MeanInterarrival = 40
	cfg.MeanRuntime = 180
	cfg.RuntimeSigma = 0.5
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := g.Batch(14)
	if err != nil {
		t.Fatal(err)
	}
	base := jobs[0].SubmitAt
	for i := range jobs {
		jobs[i].SubmitAt -= base
	}
	return jobs
}

// runInstrumentedScenario executes one instrumented scenario live run
// from a fresh system and registry and returns the deterministic
// snapshot plus the run result.
func runInstrumentedScenario(t *testing.T) (string, *ScenarioResult) {
	t.Helper()
	s, err := NewSystem(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Obs = obs.NewRegistry()
	sc := &scenario.Scenario{
		Name:              "obs-live",
		Cap:               &scenario.CapTrajectory{Steps: []scenario.CapStep{{T0: 120, T1: 600, Frac: 0.85}}},
		RampWPerS:         30,
		Chaos:             []scenario.ChaosPhase{{Preset: fleet.ChaosSplitBrain, T0: 60, T1: 480}},
		BrownoutStaleFrac: 0.2,
		MaxOverPct:        100, MaxEnergyErrPct: 100,
	}
	res, err := s.RunScenario(sc, 11, scenarioObsJobs(t, 11), LiveConfig{
		Nodes:      8,
		SampleRate: 4,
		RackSize:   4,
		Sched: sched.ControllerConfig{
			Strategy: sched.NewFIFOStrategy(),
			Config:   sched.Config{PowerCapW: 8 * 500, ReactiveCapping: false},
			TickS:    15,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s.Obs.Text(false), res
}

// TestScenarioObsSnapshotDeterministic extends the registry's
// reproducibility contract to the live scenario path: two same-seed
// scenario runs — composed chaos, a cap ramp and brownout arming all
// active — must publish byte-identical deterministic snapshots,
// including the capping-hold and brownout-transition counters this
// plane exports (run under -race -shuffle=on in CI).
func TestScenarioObsSnapshotDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two live scenario runs")
	}
	a, resA := runInstrumentedScenario(t)
	b, resB := runInstrumentedScenario(t)
	if a != b {
		la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
		for i := 0; i < len(la) && i < len(lb); i++ {
			if la[i] != lb[i] {
				t.Fatalf("snapshots diverge at line %d:\n  run 1: %s\n  run 2: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("snapshots differ in length: %d vs %d lines", len(la), len(lb))
	}

	// The new counters must be present in the deterministic snapshot.
	for _, want := range []string{
		"davide_cap_held_total",
		"davide_sched_brownout_transitions_total",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("snapshot missing %s", want)
		}
	}

	// Split-brain must actually exercise the hold path, and the counter
	// must mirror the per-rack loop accounting exactly.
	held := 0
	for _, r := range resA.Racks {
		held += r.Held
	}
	if held == 0 {
		t.Error("split-brain window produced no per-rack stale holds")
	}
	wantLine := "davide_cap_held_total " + itoa(held)
	if !strings.Contains(a, wantLine) {
		t.Errorf("snapshot does not carry %q (racks held %d)", wantLine, held)
	}
	if resA.BrownoutTransitions != resB.BrownoutTransitions {
		t.Errorf("brownout transitions diverged: %d vs %d", resA.BrownoutTransitions, resB.BrownoutTransitions)
	}
}

// itoa avoids strconv for a tiny non-negative count.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
