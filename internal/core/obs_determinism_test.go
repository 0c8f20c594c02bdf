package core

import (
	"strings"
	"testing"

	"davide/internal/obs"
	"davide/internal/sched"
)

// runInstrumentedTiered executes one instrumented tiered replay from a
// fresh System and registry and returns the deterministic snapshot.
func runInstrumentedTiered(t *testing.T, racks int) string {
	t.Helper()
	s := newSystem(t)
	if _, err := s.RunScheduled(genJobs(t, 60, 11), sched.Config{}, sched.NewEASYStrategy()); err != nil {
		t.Fatal(err)
	}
	s.StreamRacks = racks
	s.Obs = obs.NewRegistry()
	if _, err := s.StreamWindow(0, 20, 50, 12); err != nil {
		t.Fatal(err)
	}
	return s.Obs.Text(false)
}

// TestObsSnapshotDeterministic is the registry's reproducibility
// contract: two replays of the same seeded window through the same rack
// partitioning must produce byte-identical deterministic snapshots —
// every counter, gauge and stage histogram included — regardless of
// goroutine scheduling (run under -race -shuffle=on in CI). Volatile
// series (pool reuse, queue high-water, live connections) are excluded
// by Text(false); everything else has to hold.
func TestObsSnapshotDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full tiered replays")
	}
	a := runInstrumentedTiered(t, 3)
	b := runInstrumentedTiered(t, 3)
	if a == b {
		return
	}
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			t.Fatalf("snapshots diverge at line %d:\n  run 1: %s\n  run 2: %s", i+1, la[i], lb[i])
		}
	}
	t.Fatalf("snapshots differ in length: %d vs %d lines", len(la), len(lb))
}

// TestObsSnapshotHasPipelineSeries pins the wiring: an instrumented
// tiered replay must publish the stage trace and every migrated
// counter family into the registry.
func TestObsSnapshotHasPipelineSeries(t *testing.T) {
	text := runInstrumentedTiered(t, 2)
	for _, want := range []string{
		`davide_stage_batches_total{stage="commit",rack="r01"}`,
		`davide_stage_lag_seconds_bucket{stage="encode",rack="r00",le="+Inf"}`,
		`davide_e2e_staleness_seconds_count{rack="r01"}`,
		`davide_fleet_samples_total{rack="r00"}`,
		`davide_broker_publishes_in_total{broker="r01"}`,
		`davide_broker_publishes_in_total{broker="spine"}`,
		`davide_bridge_forwarded_total{bridge="r00"}`,
		`davide_store_samples`,
		`davide_agg_dropped_total`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("snapshot missing %s", want)
		}
	}
	// Volatile series must stay out of the deterministic snapshot.
	for _, banned := range []string{"buf_reuses", "high_water", "davide_broker_connections"} {
		if strings.Contains(text, banned) {
			t.Errorf("deterministic snapshot leaks volatile series %q", banned)
		}
	}
}
