package fleet

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"davide/internal/mqtt"
	"davide/internal/sensor"
	"davide/internal/telemetry"
)

func newTestRig(t *testing.T, spec GatewaySpec, workers int) (*Fleet, *telemetry.Aggregator) {
	t.Helper()
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = broker.Close() })
	agg, detach := attach(t, broker.Addr(), "fleet-test-agg")
	t.Cleanup(detach)
	fl, err := New(broker.Addr(), spec, workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fl.Close() })
	return fl, agg
}

// attach subscribes a fresh aggregator to a broker the way the plant does,
// through a decode pool; detach closes the client, then the pool.
func attach(t *testing.T, addr, clientID string) (*telemetry.Aggregator, func()) {
	t.Helper()
	agg := telemetry.NewAggregator()
	in, sub, err := agg.AttachParallel(addr, clientID, 2)
	if err != nil {
		t.Fatal(err)
	}
	return agg, func() {
		_ = sub.Close()
		in.Close()
	}
}

func TestSpecDefaults(t *testing.T) {
	sp := GatewaySpec{SampleRate: 50}.withDefaults()
	if sp.Oversample != 16 || sp.BatchSamples != 512 || sp.ClientPrefix != "fleet" || sp.SeedBase != 1000 {
		t.Errorf("fleet defaults wrong: %+v", sp)
	}
	ms := sp.monitorSpec()
	if ms.RawRate != 800 || ms.OutputRate != 50 || !ms.Averaged || ms.Bits != 12 || ms.NoiseLSB != 0.5 {
		t.Errorf("monitor spec wrong: %+v", ms)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("127.0.0.1:1", GatewaySpec{}, 0); err == nil {
		t.Error("zero sample rate should error")
	}
	if _, err := New("", GatewaySpec{SampleRate: 10}, 0); err == nil {
		t.Error("empty broker address should error")
	}
	fl, err := New("127.0.0.1:1", GatewaySpec{SampleRate: 10}, -3)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Workers() < 1 {
		t.Errorf("Workers = %d, want >= 1", fl.Workers())
	}
}

func TestStreamDeliversAndReusesGateways(t *testing.T) {
	fl, agg := newTestRig(t, GatewaySpec{SampleRate: 100}, 4)
	nodes := []NodeStream{
		{Node: 0, Signal: sensor.Const(500)},
		{Node: 1, Signal: sensor.Const(750)},
		{Node: 2, Signal: sensor.Const(1000)},
	}
	st, err := fl.Stream(context.Background(), nodes, 0, 10, agg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 3 || len(st.PerNode) != 3 {
		t.Fatalf("Nodes = %d, PerNode = %d", st.Nodes, len(st.PerNode))
	}
	if st.Samples < 3*990 {
		t.Errorf("Samples = %d, want ~3000", st.Samples)
	}
	if st.Bytes == 0 || st.Batches == 0 {
		t.Errorf("Bytes = %d, Batches = %d, want > 0", st.Bytes, st.Batches)
	}
	for _, ns := range st.PerNode {
		if !ns.Delivered {
			t.Errorf("node %d not confirmed delivered", ns.Node)
		}
	}
	// The aggregator recovered each node's energy to within 1 %.
	for i, want := range []float64{5000, 7500, 10000} {
		got, err := agg.NodeEnergy(i, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("node %d energy = %v, want ~%v", i, got, want)
		}
	}
	if fl.Size() != 3 {
		t.Errorf("Size = %d after first stream", fl.Size())
	}

	// A second window reuses the dialed gateways and keeps the cumulative
	// wait targets consistent with the same aggregator.
	st2, err := fl.Stream(context.Background(), nodes, 10, 20, agg)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Size() != 3 {
		t.Errorf("Size = %d after second stream, want 3 (clients reused)", fl.Size())
	}
	for _, ns := range st2.PerNode {
		if !ns.Delivered {
			t.Errorf("node %d second window not delivered", ns.Node)
		}
	}
	if got, _ := agg.NodeEnergy(0, 0, 20); math.Abs(got-10000)/10000 > 0.01 {
		t.Errorf("node 0 cumulative energy = %v, want ~10000", got)
	}
}

func TestSequentialAndConcurrentAgree(t *testing.T) {
	sig := sensor.Sum{
		sensor.Const(400),
		sensor.Square{Low: 0, High: 1600, Period: 0.5, Duty: 0.2},
	}
	run := func(workers int) StreamStats {
		fl, agg := newTestRig(t, GatewaySpec{SampleRate: 200}, workers)
		nodes := make([]NodeStream, 8)
		for i := range nodes {
			nodes[i] = NodeStream{Node: i, Signal: sig}
		}
		st, err := fl.Stream(context.Background(), nodes, 0, 5, agg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	seq, conc := run(1), run(8)
	if seq.Samples != conc.Samples || seq.Batches != conc.Batches {
		t.Errorf("sequential %d/%d != concurrent %d/%d samples/batches",
			seq.Samples, seq.Batches, conc.Samples, conc.Batches)
	}
	for i := range seq.PerNode {
		s, c := seq.PerNode[i], conc.PerNode[i]
		if s.EnergyJ != c.EnergyJ {
			t.Errorf("node %d energy differs: seq %v, conc %v (seeding must not depend on worker order)",
				i, s.EnergyJ, c.EnergyJ)
		}
	}
}

func TestStreamErrors(t *testing.T) {
	fl, agg := newTestRig(t, GatewaySpec{SampleRate: 100}, 2)
	ctx := context.Background()
	sig := sensor.Const(100)
	if _, err := fl.Stream(ctx, nil, 0, 1, agg); err == nil {
		t.Error("no nodes should error")
	}
	if _, err := fl.Stream(ctx, []NodeStream{{Node: 0, Signal: sig}}, 5, 5, agg); err == nil {
		t.Error("empty window should error")
	}
	if _, err := fl.Stream(ctx, []NodeStream{{Node: 0}}, 0, 1, agg); err == nil {
		t.Error("nil signal should error")
	}
	if _, err := fl.Stream(ctx, []NodeStream{{Node: -1, Signal: sig}}, 0, 1, agg); err == nil {
		t.Error("negative node ID should error")
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Stream(ctx, []NodeStream{{Node: 0, Signal: sig}}, 0, 1, agg); err == nil {
		t.Error("stream after Close should error")
	}
}

func TestStreamWithoutAggregatorDoesNotWait(t *testing.T) {
	fl, _ := newTestRig(t, GatewaySpec{SampleRate: 100}, 2)
	st, err := fl.Stream(context.Background(), []NodeStream{{Node: 0, Signal: sensor.Const(100)}}, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.PerNode[0].Delivered {
		t.Error("Delivered should be false when no aggregator confirms")
	}
	if st.Samples == 0 {
		t.Error("samples should still be published")
	}
}

func TestStreamWaitTimeoutIsNotFatal(t *testing.T) {
	// An aggregator that never receives anything (not subscribed to the
	// broker) forces the delivery wait to expire; the stream must still
	// return its publish stats with Delivered=false.
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = broker.Close() }()
	fl, err := New(broker.Addr(), GatewaySpec{SampleRate: 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fl.Close() }()
	deaf := telemetry.NewAggregator()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	st, err := fl.Stream(ctx, []NodeStream{{Node: 0, Signal: sensor.Const(100)}}, 0, 1, deaf)
	if err != nil {
		t.Fatal(err)
	}
	if st.PerNode[0].Delivered {
		t.Error("Delivered should be false after wait timeout")
	}
}

func TestFreshAggregatorMidLife(t *testing.T) {
	// A second aggregator that attaches after the fleet has already
	// streamed a window must still see its delivery confirmed: the wait
	// target is the aggregator's own pre-publish count plus this
	// window's samples, not the gateway's lifetime total.
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = broker.Close() }()
	fl, err := New(broker.Addr(), GatewaySpec{SampleRate: 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fl.Close() }()
	nodes := []NodeStream{{Node: 0, Signal: sensor.Const(500)}}

	agg1, detach1 := attach(t, broker.Addr(), "agg-one")
	if _, err := fl.Stream(context.Background(), nodes, 0, 5, agg1); err != nil {
		t.Fatal(err)
	}
	detach1()

	agg2, detach2 := attach(t, broker.Addr(), "agg-two")
	defer detach2()
	st, err := fl.Stream(context.Background(), nodes, 5, 10, agg2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.PerNode[0].Delivered {
		t.Error("fresh aggregator's delivery not confirmed — wait target must not include pre-attach samples")
	}
	if got, _ := agg2.NodeEnergy(0, 5, 10); math.Abs(got-2500)/2500 > 0.01 {
		t.Errorf("second-window energy = %v, want ~2500", got)
	}
}

func TestConcurrentStreamCallsSerialise(t *testing.T) {
	// Overlapping Stream calls on one fleet must serialise cleanly. Each
	// call gets its own node set: a single gateway's windows must advance
	// monotonically (its PTP clock rejects time going backwards), and
	// concurrent callers cannot guarantee an ordering.
	fl, agg := newTestRig(t, GatewaySpec{SampleRate: 100}, 2)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodes := []NodeStream{{Node: i, Signal: sensor.Const(500)}}
			st, err := fl.Stream(context.Background(), nodes, 0, 5, agg)
			if err != nil {
				t.Errorf("stream %d: %v", i, err)
				return
			}
			if !st.PerNode[0].Delivered {
				t.Errorf("stream %d not delivered", i)
			}
		}(i)
	}
	wg.Wait()
	total := 0
	for i := 0; i < 4; i++ {
		total += agg.Samples(i)
	}
	if total < 4*499 {
		t.Errorf("Samples = %d, want ~2000 across 4 serialised streams", total)
	}
}

func TestStreamRejectsDuplicateNodes(t *testing.T) {
	fl, agg := newTestRig(t, GatewaySpec{SampleRate: 100}, 4)
	sig := sensor.Const(100)
	nodes := []NodeStream{{Node: 0, Signal: sig}, {Node: 1, Signal: sig}, {Node: 0, Signal: sig}}
	if _, err := fl.Stream(context.Background(), nodes, 0, 1, agg); err == nil {
		t.Error("duplicate node IDs should error — one gateway cannot be driven by two workers")
	}
}

func TestStreamCancelledContextAborts(t *testing.T) {
	fl, agg := newTestRig(t, GatewaySpec{SampleRate: 100}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nodes := []NodeStream{
		{Node: 0, Signal: sensor.Const(100)},
		{Node: 1, Signal: sensor.Const(100)},
	}
	if _, err := fl.Stream(ctx, nodes, 0, 1, agg); err == nil {
		t.Error("cancelled context should abort the stream with an error")
	}
}
