package fleet_test

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"davide/internal/chaos"
	"davide/internal/fleet"
	"davide/internal/mqtt"
	"davide/internal/sensor"
	"davide/internal/telemetry"
)

// chaosRig is one broker + parallel aggregator + faulted fleet.
type chaosRig struct {
	broker *mqtt.Broker
	agg    *telemetry.Aggregator
	ingest *telemetry.Ingest
	sub    *mqtt.Client
	fleet  *fleet.Fleet
}

func newChaosRig(t *testing.T, preset string, seed int64) *chaosRig {
	t.Helper()
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = broker.Close() })
	agg := telemetry.NewAggregator()
	ingest, sub, err := agg.AttachParallel(broker.Addr(), "chaos-agg", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close(); ingest.Close() })
	plan, err := fleet.ChaosPreset(preset, seed)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := fleet.New(broker.Addr(), fleet.GatewaySpec{
		SampleRate: 200, BatchSamples: 32, Faults: plan,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fl.Close() })
	return &chaosRig{broker: broker, agg: agg, ingest: ingest, sub: sub, fleet: fl}
}

func chaosStreams(n int) []fleet.NodeStream {
	out := make([]fleet.NodeStream, n)
	for i := range out {
		out[i] = fleet.NodeStream{
			Node:   i,
			Signal: sensor.Sum{sensor.Const(360), sensor.Square{Low: 0, High: 1200, Period: 5, Duty: 0.5}},
		}
	}
	return out
}

func TestFleetChaosCrashResumeDeliversEverything(t *testing.T) {
	rig := newChaosRig(t, fleet.ChaosFlappingGateway, 7)
	st, err := rig.fleet.Stream(context.Background(), chaosStreams(4), 0, 20, rig.agg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults.Crashes == 0 || st.Restarts == 0 {
		t.Fatalf("flapping preset injected no crashes: %+v", st.Faults)
	}
	if st.Restarts != int(st.Faults.Crashes) {
		t.Fatalf("restarts %d != crashes %d", st.Restarts, st.Faults.Crashes)
	}
	for _, ns := range st.PerNode {
		if !ns.Delivered {
			t.Fatalf("node %d not delivered despite exact fault accounting: %+v", ns.Node, ns)
		}
		// Everything the gateway published minus what the link provably
		// lost (plus duplicates) must have been ingested — crashes and
		// resumes lose nothing.
		want := ns.Samples - int(ns.Faults.SamplesLost) + int(ns.Faults.SamplesDuplicated)
		if got := rig.agg.Samples(ns.Node); got != want {
			t.Fatalf("node %d: ingested %d, want %d (%+v)", ns.Node, got, want, ns.Faults)
		}
	}
	// The link saw exactly the batches the gateways published: a crash
	// retries the same batch, never skips or double-counts one.
	if int(st.Faults.Sent) != st.Batches {
		t.Fatalf("link saw %d packets, gateways published %d batches", st.Faults.Sent, st.Batches)
	}
	if rig.agg.Reordered() != int(st.Faults.ExpectedReorders()) {
		t.Fatalf("agg reordered %d, injected cause count %d", rig.agg.Reordered(), st.Faults.ExpectedReorders())
	}
	if rig.broker.Stats.Dropped.Load() != 0 {
		t.Fatalf("broker dropped %d (queue overflow breaks exact accounting)", rig.broker.Stats.Dropped.Load())
	}
}

func TestFleetChaosDeterministicAcrossRuns(t *testing.T) {
	run := func() (fleet.StreamStats, int, []float64) {
		rig := newChaosRig(t, fleet.ChaosLossyRack, 21)
		st, err := rig.fleet.Stream(context.Background(), chaosStreams(3), 0, 15, rig.agg)
		if err != nil {
			t.Fatal(err)
		}
		var energies []float64
		for n := 0; n < 3; n++ {
			e, err := rig.agg.NodeEnergy(n, 0, 15)
			if err != nil {
				t.Fatal(err)
			}
			energies = append(energies, e)
		}
		return st, rig.agg.Reordered(), energies
	}
	st1, r1, e1 := run()
	st2, r2, e2 := run()
	if !reflect.DeepEqual(st1.Faults, st2.Faults) {
		t.Fatalf("same seed, different fleet fault counters:\n%+v\n%+v", st1.Faults, st2.Faults)
	}
	if r1 != r2 {
		t.Fatalf("same seed, different reorder counts: %d vs %d", r1, r2)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("same seed, different delivered energies: %v vs %v", e1, e2)
	}
	for i := range st1.PerNode {
		if !reflect.DeepEqual(st1.PerNode[i].Faults, st2.PerNode[i].Faults) {
			t.Fatalf("node %d fault deltas differ", i)
		}
	}
	if st1.Faults.Dropped == 0 && st1.Faults.Held == 0 && st1.Faults.Duplicated == 0 {
		t.Fatalf("lossy-rack injected nothing: %+v", st1.Faults)
	}
}

func TestFleetChaosSplitBrainPartitionsOddNodesOnly(t *testing.T) {
	rig := newChaosRig(t, fleet.ChaosSplitBrain, 5)
	st, err := rig.fleet.Stream(context.Background(), chaosStreams(4), 0, 20, rig.agg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range st.PerNode {
		if ns.Node%2 == 1 && ns.Faults.Partitioned == 0 {
			t.Fatalf("odd node %d saw no partition: %+v", ns.Node, ns.Faults)
		}
		if ns.Node%2 == 0 && ns.Faults.Partitioned != 0 {
			t.Fatalf("even node %d was partitioned: %+v", ns.Node, ns.Faults)
		}
		// Lossy QoS-0 semantics: a partitioned node still completes its
		// window, with its losses accounted sample-exactly.
		want := ns.Samples - int(ns.Faults.SamplesLost) + int(ns.Faults.SamplesDuplicated)
		if got := rig.agg.Samples(ns.Node); got != want {
			t.Fatalf("node %d: ingested %d, want %d", ns.Node, got, want)
		}
	}
}

func TestFleetChaosCorruptWireNeverSilentlyIngests(t *testing.T) {
	rig := newChaosRig(t, fleet.ChaosCorruptWire, 3)
	st, err := rig.fleet.Stream(context.Background(), chaosStreams(3), 0, 20, rig.agg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults.Corrupted == 0 {
		t.Fatalf("corrupt-wire injected no corruption: %+v", st.Faults)
	}
	// Every corrupted payload must surface as an undecodable drop —
	// never as wrong samples. The delivered energy stays close to an
	// unfaulted replay because holes are bridged, and integrals cannot
	// be poisoned by garbage values (which would blow up by orders of
	// magnitude, not fractions). Corrupted packets carry no samples and
	// so are not covered by the stream's delivery handshake — barrier
	// on the exact injected count before reading the ledger.
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := rig.agg.WaitDropped(wctx, int(st.Faults.Corrupted)); err != nil {
		t.Fatalf("undecodable drops never settled: %v", err)
	}
	if got := rig.agg.Dropped(); got != int(st.Faults.Corrupted) {
		t.Fatalf("agg dropped %d, corrupted %d", got, st.Faults.Corrupted)
	}
	for n := 0; n < 3; n++ {
		got, err := rig.agg.NodeEnergy(n, 0, 20)
		if err != nil {
			t.Fatal(err)
		}
		want := 360*20 + 1200*10.0 // Const + Square duty 0.5 over 20 s
		if math.Abs(got-want)/want > 0.10 {
			t.Fatalf("node %d energy %v vs ~%v: corruption leaked into integrals", n, got, want)
		}
	}
}

func TestChaosPresetRegistry(t *testing.T) {
	names := fleet.ChaosPresetNames()
	if len(names) != 4 {
		t.Fatalf("presets = %v", names)
	}
	for _, n := range names {
		plan, err := fleet.ChaosPreset(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", n, err)
		}
		if !plan.SpecFor(0).Active() && !plan.SpecFor(1).Active() {
			t.Fatalf("preset %s injects nothing", n)
		}
		if _, err := fleet.ChaosErrBound(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fleet.ChaosPreset("nope", 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := fleet.ChaosErrBound("nope"); err == nil {
		t.Fatal("unknown bound accepted")
	}
	// An invalid fault plan must be rejected at fleet construction.
	bad := &chaos.Plan{Default: chaos.Spec{CrashEvery: 1}}
	if _, err := fleet.New("127.0.0.1:1", fleet.GatewaySpec{SampleRate: 10, Faults: bad}, 1); err == nil {
		t.Fatal("fleet accepted an invalid fault plan")
	}
}
