package fleet_test

import (
	"context"
	"math"
	"testing"
	"time"

	"davide/internal/fleet"
	"davide/internal/mqtt"
	"davide/internal/sensor"
	"davide/internal/telemetry"
)

func planeStreams(n int) []fleet.NodeStream {
	out := make([]fleet.NodeStream, n)
	for i := range out {
		// Distinct per-node waveforms so a cross-node mixup cannot cancel
		// out in a total.
		out[i] = fleet.NodeStream{
			Node: i,
			Signal: sensor.Sum{
				sensor.Const(300 + 10*float64(i)),
				sensor.Square{Low: 0, High: 900, Period: 2 + 0.1*float64(i), Duty: 0.4},
			},
		}
	}
	return out
}

func newPlane(t *testing.T, spec fleet.PlaneSpec) *fleet.Plane {
	t.Helper()
	p, err := fleet.NewPlane(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func waitForCond(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timeout waiting for " + msg)
}

// attachSpine subscribes a fresh aggregator to the plane's spine broker —
// the fabric-wide consumer path.
func attachSpine(t *testing.T, p *fleet.Plane) *telemetry.Aggregator {
	t.Helper()
	spineAgg := telemetry.NewAggregator()
	ingest, sub, err := spineAgg.AttachParallel(p.SpineAddr(), "spine-agg", 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close(); ingest.Close() })
	return spineAgg
}

// TestPlaneDeterministicAcrossRacks is the tiered fabric's core contract:
// the same seed yields bit-identical per-node series and fleet energy
// totals whether the fleet streams through one broker or many.
func TestPlaneDeterministicAcrossRacks(t *testing.T) {
	const nodes, t0, t1 = 12, 0.0, 2.0
	spec := func(racks int) fleet.PlaneSpec {
		return fleet.PlaneSpec{
			Racks:     racks,
			NodesHint: nodes,
			Gateway:   fleet.GatewaySpec{SampleRate: 100, BatchSamples: 64},
		}
	}
	type run struct {
		perNode map[int]float64
		total   float64
		samples int
	}
	runPlane := func(racks int) run {
		p := newPlane(t, spec(racks))
		spineAgg := attachSpine(t, p)
		st, err := p.Stream(context.Background(), planeStreams(nodes), t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Racks != racks || len(st.PerRack) != racks {
			t.Fatalf("stats racks = %d/%d, want %d", st.Racks, len(st.PerRack), racks)
		}
		if st.Samples != nodes*200 {
			t.Fatalf("racks=%d: streamed %d samples, want %d", racks, st.Samples, nodes*200)
		}
		for _, ns := range st.PerNode {
			if !ns.Delivered {
				t.Fatalf("racks=%d: node %d not delivered", racks, ns.Node)
			}
		}
		if st.Bridge.Dropped != 0 {
			t.Fatalf("racks=%d: bridge backpressure dropped %d with sized queues", racks, st.Bridge.Dropped)
		}
		// Every power batch crosses the uplink, and nothing else does —
		// where there is one: a one-rack plane has no spine above it.
		want := int64(st.Batches)
		if racks == 1 {
			want = 0
		}
		if st.Bridge.Forwarded != want {
			t.Fatalf("racks=%d: bridge forwarded %d, want %d", racks, st.Bridge.Forwarded, want)
		}
		// The spine carries a complete, identical copy of the stream.
		spineTotal := func() int {
			got := 0
			for n := 0; n < nodes; n++ {
				got += spineAgg.Samples(n)
			}
			return got
		}
		waitForCond(t, func() bool { return spineTotal() == st.Samples }, "spine copy complete")
		r := run{perNode: make(map[int]float64), samples: st.Samples}
		for n := 0; n < nodes; n++ {
			e, err := p.Aggregator().NodeEnergy(n, t0, t1)
			if err != nil {
				t.Fatal(err)
			}
			se, err := spineAgg.NodeEnergy(n, t0, t1)
			if err != nil {
				t.Fatal(err)
			}
			if se != e {
				t.Fatalf("racks=%d node %d: spine energy %v != rack-tier %v", racks, n, se, e)
			}
			r.perNode[n] = e
		}
		total, err := p.EnergyTotal(t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		r.total = total
		return r
	}

	base := runPlane(1)
	for _, racks := range []int{3, 4} {
		got := runPlane(racks)
		if got.total != base.total {
			t.Errorf("racks=%d: fleet energy %v != 1-rack %v (bit-identical required)", racks, got.total, base.total)
		}
		for n := 0; n < nodes; n++ {
			if got.perNode[n] != base.perNode[n] {
				t.Errorf("racks=%d node %d: energy %v != 1-rack %v", racks, n, got.perNode[n], base.perNode[n])
			}
		}
	}
}

// TestPlaneStreamsPowerOnly pins what a window puts on the fabric: the
// gateways publish their QoS-0 power batches and nothing else, so each
// broker takes and the bridges forward exactly the batches.
func TestPlaneStreamsPowerOnly(t *testing.T) {
	const nodes = 6
	p := newPlane(t, fleet.PlaneSpec{
		Racks:     2,
		NodesHint: nodes,
		Gateway:   fleet.GatewaySpec{SampleRate: 100, BatchSamples: 64},
	})
	st, err := p.Stream(context.Background(), planeStreams(nodes), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bridge.Forwarded != int64(st.Batches) {
		t.Fatalf("bridges forwarded %d, want the %d power batches", st.Bridge.Forwarded, st.Batches)
	}
	for r := 0; r < p.Racks(); r++ {
		b := p.RackBroker(r)
		if in, want := b.Stats.PublishesIn.Load(), int64(st.PerRack[r].Batches); in != want {
			t.Errorf("rack %d broker took %d publishes, want its %d power batches", r, in, want)
		}
	}
	spine := p.SpineBroker()
	waitForCond(t, func() bool { return spine.Stats.PublishesIn.Load() == int64(st.Batches) }, "spine to take every forwarded batch")
}

// TestPlaneBridgeFlapSpineAccounting runs the bridge-flap preset on the
// uplinks: the primary (rack-tier) aggregator must be untouched, the
// spine copy must account to exactly published − lost + duplicated, and
// its per-node energy error must stay inside the preset's documented
// bound.
func TestPlaneBridgeFlapSpineAccounting(t *testing.T) {
	const nodes, t0, t1 = 8, 0.0, 8.0
	const racks = 2
	plan, err := fleet.ChaosPreset(fleet.ChaosBridgeFlap, 11)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := fleet.ChaosErrBound(fleet.ChaosBridgeFlap)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlane(t, fleet.PlaneSpec{
		Racks:        racks,
		NodesHint:    nodes,
		Gateway:      fleet.GatewaySpec{SampleRate: 200, BatchSamples: 64},
		BridgeFaults: plan,
	})
	spineAgg := attachSpine(t, p)
	st, err := p.Stream(context.Background(), planeStreams(nodes), t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	// Faults live on the uplink only: the primary aggregator saw every
	// sample (exact per-node delivery), and the gateway fault ledger is
	// untouched.
	if st.Samples != nodes*1600 {
		t.Fatalf("streamed %d samples, want %d", st.Samples, nodes*1600)
	}
	for _, ns := range st.PerNode {
		if !ns.Delivered {
			t.Fatalf("node %d not delivered at the rack tier", ns.Node)
		}
	}
	if st.Faults.Sent != 0 {
		t.Fatalf("gateway links saw faults under a bridge-only plan: %+v", st.Faults)
	}
	if st.BridgeFaults.Sent == 0 {
		t.Fatal("bridge fault ledger empty: plan not applied to uplinks")
	}
	if st.BridgeFaults.Crashes == 0 {
		t.Fatalf("bridge-flap injected no crashes: %+v", st.BridgeFaults)
	}
	// Every injected crash forced one uplink redial and one retry.
	if st.Bridge.UplinkRedials != st.BridgeFaults.Crashes || st.Bridge.Retries != st.BridgeFaults.Crashes {
		t.Fatalf("redials/retries %d/%d, want crashes %d",
			st.Bridge.UplinkRedials, st.Bridge.Retries, st.BridgeFaults.Crashes)
	}
	// The spine copy accounts to exactly published − lost + duplicated.
	want := st.Samples - int(st.BridgeFaults.SamplesLost) + int(st.BridgeFaults.SamplesDuplicated)
	spineTotal := func() int {
		got := 0
		for n := 0; n < nodes; n++ {
			got += spineAgg.Samples(n)
		}
		return got
	}
	waitForCond(t, func() bool { return spineTotal() == want }, "spine accounting")
	// And the holes a lossy uplink tears must stay inside the preset's
	// documented energy-error bound, per node.
	for n := 0; n < nodes; n++ {
		ref, err := p.Aggregator().NodeEnergy(n, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spineAgg.NodeEnergy(n, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		if errPct := 100 * math.Abs(got-ref) / ref; errPct > bound {
			t.Errorf("node %d: spine energy error %.2f%% exceeds %v%% bound", n, errPct, bound)
		}
	}
}

// TestPlaneSingleRackIsOneBroker pins the one-rack layout: no spine and
// no bridge above the only rack, so the rack broker is the fabric-wide
// attach point and still carries the whole stream.
func TestPlaneSingleRackIsOneBroker(t *testing.T) {
	const nodes, t0, t1 = 6, 0.0, 2.0
	p := newPlane(t, fleet.PlaneSpec{
		Racks:     1,
		NodesHint: nodes,
		Gateway:   fleet.GatewaySpec{SampleRate: 100, BatchSamples: 64},
	})
	if p.SpineAddr() != p.RackAddr(0) || p.SpineBroker() != p.RackBroker(0) {
		t.Fatalf("one-rack plane has a spine at %s apart from its rack broker at %s", p.SpineAddr(), p.RackAddr(0))
	}
	spineAgg := attachSpine(t, p)
	st, err := p.Stream(context.Background(), planeStreams(nodes), t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bridge != (mqtt.BridgeStats{}) {
		t.Errorf("one-rack plane reports bridge traffic: %+v", st.Bridge)
	}
	total := func() int {
		got := 0
		for n := 0; n < nodes; n++ {
			got += spineAgg.Samples(n)
		}
		return got
	}
	waitForCond(t, func() bool { return total() == st.Samples }, "fabric-wide consumer complete")
	for n := 0; n < nodes; n++ {
		want, err := p.Aggregator().NodeEnergy(n, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spineAgg.NodeEnergy(n, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("node %d: fabric-wide consumer energy %v != primary %v", n, got, want)
		}
	}

	plan, err := fleet.ChaosPreset(fleet.ChaosBridgeFlap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.NewPlane(fleet.PlaneSpec{
		Racks:        1,
		Gateway:      fleet.GatewaySpec{SampleRate: 100},
		BridgeFaults: plan,
	}); err == nil {
		t.Error("BridgeFaults accepted by a plane with no uplinks")
	}
}

// TestPlaneRejectsDuplicateNodeAcrossRacks: partitioning puts equal node
// IDs next to each other, so a duplicate can land on two racks where no
// single rack fleet sees both; the plane must reject it up front.
func TestPlaneRejectsDuplicateNodeAcrossRacks(t *testing.T) {
	p := newPlane(t, fleet.PlaneSpec{
		Racks:     2,
		NodesHint: 4,
		Gateway:   fleet.GatewaySpec{SampleRate: 100},
	})
	s := planeStreams(3)
	streams := []fleet.NodeStream{s[0], s[1], s[1], s[2]} // rack 0 gets nodes 0, 1; rack 1 gets 1, 2
	if _, err := p.Stream(context.Background(), streams, 0, 2); err == nil {
		t.Fatal("node listed twice across a rack boundary accepted")
	}
	if got := p.Store().Stats().Samples; got != 0 {
		t.Errorf("rejected stream still wrote %d samples", got)
	}
}

// TestPlaneRejectsBadSpecs pins the constructor's validation.
func TestPlaneRejectsBadSpecs(t *testing.T) {
	if _, err := fleet.NewPlane(fleet.PlaneSpec{Racks: 0}); err == nil {
		t.Error("Racks=0 accepted")
	}
	if _, err := fleet.NewPlane(fleet.PlaneSpec{
		Racks:   1,
		Gateway: fleet.GatewaySpec{}, // missing sample rate
	}); err == nil {
		t.Error("zero sample rate accepted")
	}
}

// TestPlanePartitionIsContiguousAndTotal pins RackFor: every stream is
// assigned, shares are contiguous in node-sorted order, and sizes differ
// by at most one.
func TestPlanePartitionIsContiguousAndTotal(t *testing.T) {
	for _, tc := range []struct{ n, racks int }{{10, 3}, {16, 4}, {5, 8}, {1024, 8}} {
		counts := make([]int, tc.racks)
		last := 0
		for i := 0; i < tc.n; i++ {
			r := fleet.RackFor(i, tc.n, tc.racks)
			if r < last || r >= tc.racks {
				t.Fatalf("n=%d racks=%d: non-monotonic or out-of-range rack %d at %d", tc.n, tc.racks, r, i)
			}
			last = r
			counts[r]++
		}
		lo, hi := tc.n, 0
		for _, c := range counts {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if hi-lo > 1 {
			t.Errorf("n=%d racks=%d: unbalanced shares %v", tc.n, tc.racks, counts)
		}
	}
}

// TestPlaneWindowBeyondSessionQueue streams a one-rack window with more
// batches in flight than the ingest session's queue holds: 45 nodes × 24
// batches = 1080 > 1024. Every node publishes before Stream waits on any,
// so the whole window can be on the wire at once; the broker's session
// queue plus the ingest pool's shard buffer behind it must absorb it
// without a drop, even if decoding only starts once publishing ends.
func TestPlaneWindowBeyondSessionQueue(t *testing.T) {
	const nodes, batch, batches = 45, 64, 24
	const rate, t0, t1 = 512.0, 0.0, float64(batches*batch) / 512
	p := newPlane(t, fleet.PlaneSpec{
		Racks:     1,
		NodesHint: nodes,
		Gateway:   fleet.GatewaySpec{SampleRate: rate, Oversample: 1, BatchSamples: batch},
	})
	streams := make([]fleet.NodeStream, nodes)
	for i := range streams {
		streams[i] = fleet.NodeStream{Node: i, Signal: sensor.Const(400 + 25*float64(i))}
	}
	st, err := p.Stream(context.Background(), streams, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != nodes*batches {
		t.Fatalf("window carried %d batches, want %d", st.Batches, nodes*batches)
	}
	if d := p.RackBroker(0).Stats.Dropped.Load(); d != 0 {
		t.Errorf("broker dropped %d of %d batches", d, st.Batches)
	}
	for _, ns := range st.PerNode {
		if !ns.Delivered {
			t.Errorf("node %d not delivered", ns.Node)
		}
	}
	for _, ns := range streams {
		want, _ := ns.Signal.Energy(t0, t1)
		got, err := p.Aggregator().NodeEnergy(ns.Node, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("node %d: store energy %v J, analytic %v J", ns.Node, got, want)
		}
	}
}
