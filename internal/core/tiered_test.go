package core

import (
	"reflect"
	"strings"
	"testing"

	"davide/internal/fleet"
	"davide/internal/sched"
)

// TestStreamWindowTiered replays the same window through the pilot
// single-broker layout and the tiered fabric: the tiered path must
// report the same exact delivery, carry the full stream across the
// bridges, and — the determinism contract — land on a bit-identical
// energy verdict.
func TestStreamWindowTiered(t *testing.T) {
	const t0, t1, rate, nodes = 0.0, 40.0, 50.0, 9
	s := newSystem(t)
	if _, err := s.RunScheduled(genJobs(t, 60, 11), sched.Config{}, sched.NewEASYStrategy()); err != nil {
		t.Fatal(err)
	}
	base, err := s.StreamWindow(t0, t1, rate, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if base.Racks != 1 {
		t.Fatalf("single-broker replay reports Racks = %d, want 1", base.Racks)
	}

	s.StreamRacks = 3
	res, err := s.StreamWindow(t0, t1, rate, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Racks != 3 {
		t.Fatalf("Racks = %d, want 3", res.Racks)
	}
	if res.SamplesSent != base.SamplesSent {
		t.Errorf("tiered replay sent %d samples, single-broker %d", res.SamplesSent, base.SamplesSent)
	}
	for _, ns := range res.PerNode {
		if !ns.Delivered {
			t.Errorf("node %d not delivered on the tiered path", ns.Node)
		}
	}
	// Every power batch crossed an uplink, and nothing else did, without
	// backpressure loss.
	if want := int64(res.BatchesSent); res.Bridge.Forwarded != want {
		t.Errorf("bridges forwarded %d, want %d", res.Bridge.Forwarded, want)
	}
	if res.Bridge.Dropped != 0 {
		t.Errorf("bridges dropped %d under sized queues", res.Bridge.Dropped)
	}
	// Same seed, same window: the telemetry-vs-analytic verdict must be
	// bit-identical regardless of rack partitioning.
	if res.MaxEnergyErrPct != base.MaxEnergyErrPct {
		t.Errorf("tiered MaxEnergyErrPct %v != single-broker %v (bit-identical required)",
			res.MaxEnergyErrPct, base.MaxEnergyErrPct)
	}
	// No uplink faults requested: no spine verification pass.
	if res.SpineSamples != 0 || res.BridgeFaults.Sent != 0 {
		t.Errorf("unfaulted replay reports spine accounting: %+v", res)
	}
	if s.Store() == nil {
		t.Fatal("Store() nil after tiered replay")
	}
}

// TestStreamWindowTieredBridgeFaults drives the bridge-flap preset over
// the uplinks of a tiered replay: the rack-tier verdict stays exact
// while the spine copy accounts to the fault ledger and stays inside
// the preset's documented energy-error bound.
func TestStreamWindowTieredBridgeFaults(t *testing.T) {
	const t0, t1, rate, nodes = 0.0, 40.0, 50.0, 8
	s := newSystem(t)
	if _, err := s.RunScheduled(genJobs(t, 60, 11), sched.Config{}, sched.NewEASYStrategy()); err != nil {
		t.Fatal(err)
	}
	plan, err := fleet.ChaosPreset(fleet.ChaosBridgeFlap, 7)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := fleet.ChaosErrBound(fleet.ChaosBridgeFlap)
	if err != nil {
		t.Fatal(err)
	}
	s.StreamRacks = 2
	s.BridgeFaults = plan
	s.StreamBatchSamples = 64 // small batches so per-message faults get statistics
	res, err := s.StreamWindow(t0, t1, rate, nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Gateway links are clean — the fault plan lives on the uplinks.
	if res.Faults.Sent != 0 {
		t.Errorf("gateway fault ledger non-empty under a bridge-only plan: %+v", res.Faults)
	}
	if res.BridgeFaults.Sent == 0 {
		t.Fatal("bridge fault ledger empty: plan not applied to uplinks")
	}
	// StreamWindow itself enforces spine total == published − lost +
	// duplicated before returning; pin the reported number to the ledger.
	want := res.SamplesSent - int(res.BridgeFaults.SamplesLost) + int(res.BridgeFaults.SamplesDuplicated)
	if res.SpineSamples != want {
		t.Errorf("SpineSamples = %d, want %d", res.SpineSamples, want)
	}
	if res.SpineMaxEnergyErrPct > bound {
		t.Errorf("spine energy error %.2f%% exceeds the %v%% bridge-flap bound",
			res.SpineMaxEnergyErrPct, bound)
	}
	// The rack tier never saw a fault: its verdict is as tight as ever.
	if res.MaxEnergyErrPct > 1 {
		t.Errorf("rack-tier MaxEnergyErrPct %.3f%% degraded by uplink faults", res.MaxEnergyErrPct)
	}
}

// TestStreamWindowBridgeFaultsNeedRacks pins the config check.
func TestStreamWindowBridgeFaultsNeedRacks(t *testing.T) {
	s := newSystem(t)
	if _, err := s.RunScheduled(genJobs(t, 20, 3), sched.Config{}, sched.NewEASYStrategy()); err != nil {
		t.Fatal(err)
	}
	plan, err := fleet.ChaosPreset(fleet.ChaosBridgeFlap, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.BridgeFaults = plan
	_, err = s.StreamWindow(0, 1, 50, 1)
	if err == nil || !strings.Contains(err.Error(), "StreamRacks") {
		t.Errorf("BridgeFaults without StreamRacks: err = %v, want config error", err)
	}
}

// TestRunLiveDeterministicAcrossRacks carries the determinism contract
// over to the control plane: the live loop streams through the same
// plane a replay does, so the same seed must yield the same controller
// outcome, node assignments and per-node store energy for any rack
// count — unset, one, or several.
func TestRunLiveDeterministicAcrossRacks(t *testing.T) {
	const nodes = 8
	jobs := scenarioObsJobs(t, 11)
	type run struct {
		res    *LiveResult
		energy []float64
	}
	runLive := func(racks int) run {
		s := newSystem(t)
		s.StreamRacks = racks
		res, err := s.RunLive(jobs, LiveConfig{
			Nodes:      nodes,
			SampleRate: 4,
			RackSize:   4,
			Sched: sched.ControllerConfig{
				Admission: sched.AdmitPowerAware,
				Config:    sched.Config{PowerCapW: nodes * 1500, ReactiveCapping: true},
				TickS:     15,
			},
		})
		if err != nil {
			t.Fatalf("StreamRacks=%d: %v", racks, err)
		}
		r := run{res: res, energy: make([]float64, nodes)}
		for n := range r.energy {
			if r.energy[n], err = s.Store().Energy(n, 0, res.Makespan); err != nil {
				t.Fatalf("StreamRacks=%d node %d: %v", racks, n, err)
			}
		}
		return r
	}

	base := runLive(0)
	if base.res.Ticks == 0 || base.res.SamplesSent == 0 || len(base.res.Assignments) != len(jobs) {
		t.Fatalf("degenerate base run: %d ticks, %d samples, %d of %d jobs assigned",
			base.res.Ticks, base.res.SamplesSent, len(base.res.Assignments), len(jobs))
	}
	for _, racks := range []int{1, 3} {
		got := runLive(racks)
		if !reflect.DeepEqual(got.res.ControllerResult, base.res.ControllerResult) {
			t.Errorf("StreamRacks=%d: controller result differs from the default layout:\n got %+v\nwant %+v",
				racks, got.res.ControllerResult, base.res.ControllerResult)
		}
		if !reflect.DeepEqual(got.res.Assignments, base.res.Assignments) {
			t.Errorf("StreamRacks=%d: assignments differ from the default layout", racks)
		}
		for n := range base.energy {
			if got.energy[n] != base.energy[n] {
				t.Errorf("StreamRacks=%d node %d: store energy %v != %v (bit-identical required)",
					racks, n, got.energy[n], base.energy[n])
			}
		}
	}
}
