package telemetry

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"davide/internal/accounting"
	"davide/internal/gateway"
	"davide/internal/monitors"
	"davide/internal/mqtt"
	"davide/internal/ptp"
	"davide/internal/sensor"
	"davide/internal/wire"
)

func mkBatch(node int, t0, dt float64, powers ...float64) gateway.Batch {
	return gateway.Batch{Node: node, T0: t0, Dt: dt, Samples: powers}
}

func TestAddBatchAndQueries(t *testing.T) {
	a := NewAggregator()
	a.AddBatch(mkBatch(3, 0, 1, 100, 100, 100, 100))
	a.AddBatch(mkBatch(3, 4, 1, 200, 200))
	a.AddBatch(mkBatch(5, 0, 1, 50))
	nodes := a.Nodes()
	if len(nodes) != 2 || nodes[0] != 3 || nodes[1] != 5 {
		t.Errorf("Nodes = %v", nodes)
	}
	if a.Samples(3) != 6 || a.Samples(5) != 1 || a.Samples(99) != 0 {
		t.Errorf("Samples = %d/%d/%d", a.Samples(3), a.Samples(5), a.Samples(99))
	}
	e, err := a.NodeEnergy(3, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-(400+400)) > 1e-9 {
		t.Errorf("energy = %v, want 800", e)
	}
	m, err := a.MeanPower(3, 0, 4)
	if err != nil || math.Abs(m-100) > 1e-9 {
		t.Errorf("mean = %v,%v want 100", m, err)
	}
	if _, err := a.NodeEnergy(99, 0, 1); err == nil {
		t.Error("unknown node should error")
	}
	if _, err := a.NodeEnergy(5, 0, 1); err == nil {
		t.Error("single-sample series should error")
	}
	if _, err := a.MeanPower(3, 4, 4); err == nil {
		t.Error("empty window should error")
	}
}

// TestJobEnergy: a job's energy-to-solution is the store integral over
// its nodes and interval — asked of the aggregator's store through
// accounting.RecordFromSource, the paper's per-job accounting (EA)
// primitive.
func TestJobEnergy(t *testing.T) {
	a := NewAggregator()
	for _, n := range []int{0, 1} {
		a.AddBatch(mkBatch(n, 0, 1, 1000, 1000, 1000, 1000, 1000))
	}
	r, err := accounting.RecordFromSource(a.Store(), 9, 1, "x", []int{0, 1}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.EnergyJ-6000) > 1e-9 { // 2 nodes x 1 kW x 3 s
		t.Errorf("job energy = %v, want 6000", r.EnergyJ)
	}
	if _, err := accounting.RecordFromSource(a.Store(), 1, 1, "x", nil, 0, 1); err == nil {
		t.Error("no nodes should error")
	}
	if _, err := accounting.RecordFromSource(a.Store(), 1, 1, "x", []int{0}, 1, 1); err == nil {
		t.Error("empty interval should error")
	}
	if _, err := accounting.RecordFromSource(a.Store(), 1, 1, "x", []int{42}, 0, 1); err == nil {
		t.Error("missing node should error")
	}
}

// TestCorrelatePhases: mean power within application phase markers — the
// profiling (Pr) view of Fig. 4, asked of the aggregator's store through
// accounting.Phases.
func TestCorrelatePhases(t *testing.T) {
	a := NewAggregator()
	// Power: 100 W for t<5, then 300 W.
	a.AddBatch(mkBatch(0, 0, 1, 100, 100, 100, 100, 100, 300, 300, 300, 300, 300))
	phases, err := accounting.Phases(a.Store(), []int{0}, []string{"lo", "hi"}, []float64{0, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 || math.Abs(phases[0].MeanW-100) > 1e-9 || math.Abs(phases[1].MeanW-300) > 1e-9 {
		t.Errorf("phases = %+v", phases)
	}
	if _, err := accounting.Phases(a.Store(), []int{0}, nil, []float64{1}); err == nil {
		t.Error("single boundary should error")
	}
	if _, err := accounting.Phases(a.Store(), []int{0}, []string{"a"}, []float64{5, 5}); err == nil {
		t.Error("non-increasing boundaries should error")
	}
}

func TestConsumeRoutesAndDrops(t *testing.T) {
	a := NewAggregator()
	h := func(m mqtt.Message) { a.consumeWith(m, nil) }
	b := mustEncode(t, mkBatch(4, 0, 1, 10, 20))
	h(mqtt.Message{Topic: "davide/node04/power", Payload: b})
	if a.Samples(4) != 2 {
		t.Errorf("Samples = %d", a.Samples(4))
	}
	sum, err := (gateway.EnergySummary{Node: 4, T0: 0, T1: 2, Joules: 30, MeanW: 15}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The aggregator ingests power only: a well-formed energy summary is
	// as unroutable as a foreign topic.
	h(mqtt.Message{Topic: "davide/node04/energy", Payload: sum})
	if a.Dropped() != 1 {
		t.Errorf("Dropped = %d after an energy summary, want 1", a.Dropped())
	}
	// Garbage payloads and foreign topics are dropped, not fatal.
	h(mqtt.Message{Topic: "davide/node04/power", Payload: []byte("junk")})
	h(mqtt.Message{Topic: "other/topic", Payload: b})
	if a.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", a.Dropped())
	}
}

// TestNonFiniteFrameIsDropped publishes a bit-perfect binary frame whose
// samples are [100, NaN, +Inf, 100] between two good batches of one node.
// The frame is written here with the wire primitives, as a foreign or
// faulty publisher would: gateway's own encoder refuses it. Ingested, its
// NaN would sit in the node's 1-s and 60-s rollup buckets for the life of
// the store, and every window touching them — the controller's MeanPower
// among them — would read NaN.
func TestNonFiniteFrameIsDropped(t *testing.T) {
	const node, n, dt = 9, 2000, 1e-3
	good := make([]float64, n)
	for i := range good {
		good[i] = 400 + float64(i%7)
	}
	var w wire.BitWriter
	w.Reset([]byte{0xDA, 0x01}) // magic, version
	w.WriteUvarint(node)
	w.WriteUvarint(4)
	w.WriteUvarint(uint64(wire.ToTick(dt)))
	w.WriteUvarint(wire.Zigzag(wire.ToTick(2)))
	for i := 0; i < 3; i++ {
		w.WriteDoD(0)
	}
	hostile := []float64{100, math.NaN(), math.Inf(1), 100}
	w.WriteBits(math.Float64bits(hostile[0]), 64)
	var xs wire.XORState
	for i := 1; i < len(hostile); i++ {
		w.WriteXOR(math.Float64bits(hostile[i]), math.Float64bits(hostile[i-1]), &xs)
	}

	a := NewAggregator()
	h := func(m mqtt.Message) { a.consumeWith(m, nil) }
	for _, payload := range [][]byte{
		mustEncode(t, mkBatch(node, 0, dt, good...)),
		append([]byte(nil), w.Bytes()...),
		mustEncode(t, mkBatch(node, 2.004, dt, good...)),
	} {
		h(mqtt.Message{Topic: "davide/node09/power", Payload: payload})
	}
	if a.Dropped() != 1 || a.Samples(node) != 2*n {
		t.Errorf("Dropped = %d, Samples = %d; want 1 and %d", a.Dropped(), a.Samples(node), 2*n)
	}
	for _, res := range []float64{0, 1, 60} {
		for _, t1 := range []float64{4, 1.5} {
			e, err := a.Store().EnergyAt(node, 0, t1, res)
			if err != nil || math.IsNaN(e) || math.IsInf(e, 0) || e <= 0 {
				t.Errorf("EnergyAt(0, %v, res %v) = %v, %v; want a finite energy", t1, res, e, err)
			}
		}
	}
}

// TestJSONBatchIsDropped: the batch wire format is the binary frame
// only, so a JSON batch on a power topic is one dropped message and
// ingests nothing.
func TestJSONBatchIsDropped(t *testing.T) {
	a := NewAggregator()
	h := func(m mqtt.Message) { a.consumeWith(m, nil) }
	h(mqtt.Message{Topic: "davide/node04/power", Payload: []byte(`{"node":4,"t0":0,"dt":1,"p":[10,20]}`)})
	if a.Dropped() != 1 || a.Samples(4) != 0 {
		t.Errorf("Dropped = %d, Samples = %d; want 1 and 0", a.Dropped(), a.Samples(4))
	}
}

// attach subscribes a fresh aggregator to a broker the way the plant does,
// through a decode pool, and detaches it when the test ends.
func attach(t *testing.T, addr, clientID string) *Aggregator {
	t.Helper()
	a := NewAggregator()
	in, sub, err := a.AttachParallel(addr, clientID, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = sub.Close()
		in.Close()
	})
	return a
}

func mustEncode(t *testing.T, b gateway.Batch) []byte {
	t.Helper()
	p, err := b.AppendEncode(nil, gateway.CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEndToEndOverMQTT wires gateway -> broker -> aggregator over real TCP
// and verifies the delivered energy matches the gateway's own estimate.
func TestEndToEndOverMQTT(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = broker.Close() }()

	agg := attach(t, broker.Addr(), "agg")

	pubClient, err := mqtt.Dial(broker.Addr(), mqtt.ClientOptions{ClientID: "gw07"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pubClient.Close() }()

	mon, err := monitors.NewBuiltin(monitors.EnergyGateway, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	clock, err := ptp.NewClock(0, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(7, mon, clock, gateway.ClientPublisher{C: pubClient}, 500)
	if err != nil {
		t.Fatal(err)
	}

	sig := sensor.Sum{sensor.Const(1500), sensor.Square{Low: 0, High: 400, Period: 0.01, Duty: 0.5}}
	want, err := gw.PublishWindow(sig, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := agg.WaitSamples(ctx, 7, 2500); err != nil {
		t.Fatalf("samples delivered = %d, want 2500: %v", agg.Samples(7), err)
	}
	got, err := agg.NodeEnergy(7, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.01*want {
		t.Errorf("delivered energy %v deviates from gateway estimate %v", got, want)
	}
}

// TestMultipleAgents verifies the paper's "multiple agents" requirement:
// two aggregators on one broker both see the full stream.
func TestMultipleAgents(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = broker.Close() }()

	agg1 := attach(t, broker.Addr(), "agent-accounting")
	agg2 := attach(t, broker.Addr(), "agent-profiler")

	pubClient, err := mqtt.Dial(broker.Addr(), mqtt.ClientOptions{ClientID: "gw01"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pubClient.Close() }()
	payload := mustEncode(t, mkBatch(1, 0, 1, 500, 600, 700))
	if err := pubClient.Publish(gateway.PowerTopic(1), payload, 1, false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if agg1.Samples(1) == 3 && agg2.Samples(1) == 3 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("agents got %d and %d samples, want 3 each", agg1.Samples(1), agg2.Samples(1))
}

func TestWaitSamplesImmediate(t *testing.T) {
	a := NewAggregator()
	a.AddBatch(mkBatch(1, 0, 1, 10, 20, 30))
	ctx := context.Background()
	if err := a.WaitSamples(ctx, 1, 3); err != nil {
		t.Errorf("satisfied wait should return nil, got %v", err)
	}
	if err := a.WaitSamples(ctx, 1, 0); err != nil {
		t.Errorf("zero-target wait should return nil, got %v", err)
	}
	if err := a.WaitSamples(ctx, 99, 0); err != nil {
		t.Errorf("zero-target wait on unseen node should return nil, got %v", err)
	}
}

func TestWaitSamplesWakesOnDelivery(t *testing.T) {
	a := NewAggregator()
	a.AddBatch(mkBatch(7, 0, 1, 1, 2))
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- a.WaitSamples(ctx, 7, 5)
	}()
	time.Sleep(10 * time.Millisecond)
	a.AddBatch(mkBatch(7, 2, 1, 3))    // 3 samples: not enough yet
	a.AddBatch(mkBatch(8, 0, 1, 9, 9)) // other node: must not wake node 7
	a.AddBatch(mkBatch(7, 3, 1, 4, 5)) // 5 samples: wakes the waiter
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("WaitSamples = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestWaitDropped(t *testing.T) {
	a := NewAggregator()
	garbage := mqtt.Message{Topic: "davide/node01/power", Payload: []byte{0xFF, 0x01, 0x02}}
	ctx := context.Background()
	if err := a.WaitDropped(ctx, 0); err != nil {
		t.Errorf("zero-target wait should return nil, got %v", err)
	}
	a.consumeWith(garbage, nil)
	if err := a.WaitDropped(ctx, 1); err != nil {
		t.Errorf("satisfied wait should return nil, got %v", err)
	}
	done := make(chan error, 1)
	go func() {
		wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		done <- a.WaitDropped(wctx, 3)
	}()
	time.Sleep(10 * time.Millisecond)
	a.consumeWith(garbage, nil) // 2 drops: not enough yet
	a.consumeWith(garbage, nil) // 3 drops: wakes the waiter
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("WaitDropped = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drop waiter never woke")
	}
	// Cancellation must deregister the waiter.
	wctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := a.WaitDropped(wctx, 99); err == nil {
		t.Error("expired context should return an error")
	}
	a.dropMu.Lock()
	n := len(a.dwaiters.waiters)
	a.dropMu.Unlock()
	if n != 0 {
		t.Errorf("%d drop waiters left registered after cancellation", n)
	}
}

func TestWaitSamplesContextExpiry(t *testing.T) {
	a := NewAggregator()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := a.WaitSamples(ctx, 1, 10); err == nil {
		t.Error("expired context should return an error")
	}
	// The cancelled waiter must have been deregistered.
	sh := a.shardFor(1)
	sh.mu.Lock()
	n := len(sh.waiters.waiters)
	sh.mu.Unlock()
	if n != 0 {
		t.Errorf("%d waiters left registered after cancellation", n)
	}
}

func TestIngestParallelDecodePreservesPerNodeOrder(t *testing.T) {
	a := NewAggregator()
	in := NewIngest(a, 4, 8)
	defer in.Close()
	h := in.Handler()
	// 40 batches across 4 nodes, in publish order per node. The sharded
	// pool must keep each node's series monotonically timed even though
	// different nodes decode on different workers.
	for i := 0; i < 10; i++ {
		for node := 0; node < 4; node++ {
			b := mkBatch(node, float64(i*2), 1, 100, 200)
			payload := mustEncode(t, b)
			h(mqtt.Message{Topic: gateway.PowerTopic(node), Payload: payload})
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for node := 0; node < 4; node++ {
		if err := a.WaitSamples(ctx, node, 20); err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
	// Reordered batches would be tolerated (sort-on-insert), so prove
	// order was *preserved* by the pool: no batch tripped the guard.
	if n := a.Reordered(); n != 0 {
		t.Fatalf("sharded pool let %d batches arrive out of order", n)
	}
	for node := 0; node < 4; node++ {
		pts, err := a.Store().Fetch(node, -math.MaxFloat64, math.MaxFloat64, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].T0 <= pts[i-1].T0 {
				t.Errorf("node %d series out of order: %v after %v", node, pts[i].T0, pts[i-1].T0)
			}
		}
	}
}

func TestSubscribeParallelEndToEnd(t *testing.T) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = broker.Close() }()
	a := NewAggregator()
	in, sub, err := a.AttachParallel(broker.Addr(), "par-agg", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	defer func() { _ = sub.Close() }()

	pub, err := mqtt.Dial(broker.Addr(), mqtt.ClientOptions{ClientID: "par-pub"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	b := mkBatch(2, 0, 0.5, 100, 100, 100, 100)
	payload := mustEncode(t, b)
	if err := pub.Publish(gateway.PowerTopic(2), payload, 0, false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.WaitSamples(ctx, 2, 4); err != nil {
		t.Fatal(err)
	}
	e, err := a.NodeEnergy(2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-200) > 1e-9 {
		t.Errorf("energy = %v, want 200", e)
	}
	in.Close() // idempotent
}

// naiveRectEnergy is the flat-scan reference integral the store must
// reproduce: sample i spans to its successor, the last spans the final
// observed gap.
func naiveRectEnergy(ts, ws []float64, t0, t1 float64) float64 {
	e := 0.0
	n := len(ts)
	for i := 0; i < n; i++ {
		hi := ts[i] + (ts[n-1] - ts[n-2])
		if i+1 < n {
			hi = ts[i+1]
		}
		lo := ts[i]
		if lo < t0 {
			lo = t0
		}
		if hi > t1 {
			hi = t1
		}
		if hi > lo {
			e += ws[i] * (hi - lo)
		}
	}
	return e
}

// TestNonUniformRateEnergy: with two batches at different sample periods,
// each rectangle's width must come from its actual neighbour gap, not
// from the first gap of the series. The subtest keeps the name the
// store-backed arm ran under while a flat-slice mode ran beside it.
func TestNonUniformRateEnergy(t *testing.T) {
	t.Run("tsdb", func(t *testing.T) {
		a := NewAggregator()
		a.AddBatch(mkBatch(0, 0, 1, 100, 100, 100))   // 1 Hz
		a.AddBatch(mkBatch(0, 3, 0.5, 200, 200, 200)) // 2 Hz
		// Rectangles: [0,1)[1,2)[2,3) @100, [3,3.5)[3.5,4)[4,4.5) @200.
		want := 300 + 200*1.5
		got, err := a.NodeEnergy(0, 0, 4.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("energy = %v, want %v", got, want)
		}
		// Sub-window cutting the fast half.
		got, err = a.NodeEnergy(0, 3.25, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-200*0.75) > 1e-6 {
			t.Errorf("sub-window energy = %v, want 150", got)
		}
	})
}

// TestAddBatchOutOfOrderRedelivery is the QoS-0 regression test: batches
// arriving late, overlapping, or twice must leave the energy integral
// identical to an in-order ingest.
func TestAddBatchOutOfOrderRedelivery(t *testing.T) {
	batches := []gateway.Batch{
		mkBatch(1, 0, 1, 100, 110, 120, 130),
		mkBatch(1, 4, 1, 200, 210, 220, 230),
		mkBatch(1, 8, 1, 300, 310, 320, 330),
	}
	t.Run("tsdb", func(t *testing.T) {
		ref := NewAggregator()
		for _, b := range batches {
			ref.AddBatch(b)
		}
		want, err := ref.NodeEnergy(1, 0, 12)
		if err != nil {
			t.Fatal(err)
		}

		scrambled := NewAggregator()
		scrambled.AddBatch(batches[0])
		scrambled.AddBatch(batches[2]) // skips ahead
		scrambled.AddBatch(batches[1]) // arrives late
		scrambled.AddBatch(batches[1]) // duplicate redelivery
		got, err := scrambled.NodeEnergy(1, 0, 12)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("scrambled energy = %v, want %v", got, want)
		}
		if scrambled.Reordered() != 2 {
			t.Errorf("Reordered = %d, want 2", scrambled.Reordered())
		}
		if ref.Reordered() != 0 {
			t.Errorf("in-order Reordered = %d, want 0", ref.Reordered())
		}
		// Ingest counting stays monotonic for delivery accounting.
		if scrambled.Samples(1) != 16 {
			t.Errorf("Samples = %d, want 16 ingested", scrambled.Samples(1))
		}
	})
}

// TestQueryErrorPaths: what the store cannot answer is an error through
// every layer that asks it, never a zero.
func TestQueryErrorPaths(t *testing.T) {
	a := NewAggregator()
	a.AddBatch(mkBatch(0, 0, 1, 100, 100, 100, 100))
	a.AddBatch(mkBatch(2, 0, 1, 50)) // single-sample (empty) series
	db := a.Store()

	if _, err := accounting.RecordFromSource(db, 1, 1, "x", []int{2}, 0, 1); err == nil {
		t.Error("empty series should error")
	}
	if _, err := a.MeanPower(42, 0, 1); err == nil {
		t.Error("MeanPower of unknown node should error")
	}
}

// TestRawVsRollupAgreement asserts the documented contract through the
// aggregator: for every maintained resolution, the rollup energy agrees
// with the raw integral within res x maxPower per window boundary.
func TestRawVsRollupAgreement(t *testing.T) {
	a := NewAggregator()
	rng := rand.New(rand.NewSource(17))
	t0, level := 0.0, 500.0
	var ts, ws []float64
	for b := 0; b < 200; b++ {
		if rng.Intn(5) == 0 {
			level = 360 + rng.Float64()*1500
		}
		samples := make([]float64, 25)
		for i := range samples {
			samples[i] = level
		}
		a.AddBatch(gateway.Batch{Node: 3, T0: t0, Dt: 0.2, Samples: samples})
		for i := range samples {
			ts = append(ts, t0+float64(i)*0.2)
			ws = append(ws, level)
		}
		t0 += 5
	}
	last := ts[len(ts)-1]
	maxW := 0.0
	for _, w := range ws {
		if w > maxW {
			maxW = w
		}
	}
	db := a.Store()
	for _, res := range db.Resolutions() {
		for trial := 0; trial < 50; trial++ {
			lo := rng.Float64() * last
			hi := lo + rng.Float64()*(last-lo)
			raw, err := db.Energy(3, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if ref := naiveRectEnergy(ts, ws, lo, hi); math.Abs(raw-ref) > 1e-6*math.Max(1, ref) {
				t.Fatalf("raw %v deviates from reference %v", raw, ref)
			}
			rolled, err := db.EnergyAt(3, lo, hi, res)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(raw-rolled) > 2*res*maxW+1e-6 {
				t.Fatalf("res %g [%v,%v]: raw %v vs rollup %v exceeds bound %v",
					res, lo, hi, raw, rolled, 2*res*maxW)
			}
		}
	}
}
