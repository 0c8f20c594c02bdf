package gateway

import (
	"math"
	"sync"
	"testing"

	"davide/internal/monitors"
	"davide/internal/ptp"
	"davide/internal/sensor"
)

// memPublisher collects published messages in memory.
type memPublisher struct {
	mu   sync.Mutex
	msgs []struct {
		topic   string
		payload []byte
		qos     byte
		retain  bool
	}
	failAfter int // fail the N-th publish (0 = never)
	count     int
}

func (m *memPublisher) Publish(topic string, payload []byte, qos byte, retain bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.count++
	if m.failAfter > 0 && m.count >= m.failAfter {
		return errPub
	}
	// Per the Publisher contract, payload is only valid during the call:
	// a retaining publisher must copy.
	m.msgs = append(m.msgs, struct {
		topic   string
		payload []byte
		qos     byte
		retain  bool
	}{topic, append([]byte(nil), payload...), qos, retain})
	return nil
}

var errPub = &pubErr{}

type pubErr struct{}

func (*pubErr) Error() string { return "publisher failure" }

func newGateway(t *testing.T, pub Publisher) *Gateway {
	t.Helper()
	mon, err := monitors.NewBuiltin(monitors.EnergyGateway, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	clock, err := ptp.NewClock(2e-6, 0, 0, 2) // 2 µs synced clock
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(7, mon, clock, pub, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTopics(t *testing.T) {
	if PowerTopic(7) != "davide/node07/power" {
		t.Errorf("PowerTopic = %q", PowerTopic(7))
	}
	if EnergyTopic(12) != "davide/node12/energy" {
		t.Errorf("EnergyTopic = %q", EnergyTopic(12))
	}
}

func TestBatchCodec(t *testing.T) {
	b := Batch{Node: 3, T0: 1.5, Dt: 2e-5, Samples: []float64{100, 200, 300}}
	payload, err := b.AppendEncode(nil, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != 3 || got.T0 != 1.5 || math.Abs(got.Dt-2e-5) > 1e-15 || len(got.Samples) != 3 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := DecodeBatch([]byte("not a frame")); err == nil {
		t.Error("bad payload should error")
	}
}

func TestBatchValidation(t *testing.T) {
	if err := (Batch{Node: 0, Dt: 0, Samples: []float64{1}}).Validate(); err == nil {
		t.Error("zero dt should error")
	}
	if err := (Batch{Node: 0, Dt: 1}).Validate(); err == nil {
		t.Error("empty samples should error")
	}
	for _, dt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if err := (Batch{Node: 0, Dt: dt, Samples: []float64{1}}).Validate(); err == nil {
			t.Errorf("dt %v should error", dt)
		}
	}
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := Batch{Node: 0, Dt: 1, Samples: []float64{1, p, 1}}
		if err := b.Validate(); err == nil {
			t.Errorf("sample %v should error", p)
		}
		if _, err := b.AppendEncode(nil, CodecBinary); err == nil {
			t.Errorf("encode of sample %v should error", p)
		}
	}
	if err := (Batch{Node: 0, Dt: 5e-324, Samples: []float64{math.MaxFloat64, -math.MaxFloat64, 0, 5e-324}}).Validate(); err != nil {
		t.Errorf("extreme finite values refused: %v", err)
	}
	if _, err := (Batch{Node: 0, Dt: 1}).AppendEncode(nil, CodecBinary); err == nil {
		t.Error("encode of invalid batch should error")
	}
}

func TestEnergySummaryCodec(t *testing.T) {
	payload, err := EnergySummary{Node: 5, T0: 0, T1: 10, Joules: 18000, MeanW: 1800}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"node":5,"t0":0,"t1":10,"j":18000,"mean_w":1800}`; string(payload) != want {
		t.Errorf("payload = %s, want %s", payload, want)
	}
}

func TestNewValidation(t *testing.T) {
	mon, _ := monitors.NewBuiltin(monitors.EnergyGateway, 3000, 1)
	clock, _ := ptp.NewClock(0, 0, 0, 1)
	pub := &memPublisher{}
	cases := []struct {
		name string
		fn   func() (*Gateway, error)
	}{
		{"negative id", func() (*Gateway, error) { return New(-1, mon, clock, pub, 10) }},
		{"nil monitor", func() (*Gateway, error) { return New(0, nil, clock, pub, 10) }},
		{"nil clock", func() (*Gateway, error) { return New(0, mon, nil, pub, 10) }},
		{"nil pub", func() (*Gateway, error) { return New(0, mon, clock, nil, 10) }},
		{"zero batch", func() (*Gateway, error) { return New(0, mon, clock, pub, 0) }},
	}
	for _, c := range cases {
		if _, err := c.fn(); err == nil {
			t.Errorf("%s should error", c.name)
		}
	}
}

func TestPublishWindow(t *testing.T) {
	pub := &memPublisher{}
	g := newGateway(t, pub)
	sig := sensor.Const(1800)
	energy, err := g.PublishWindow(sig, 0, 0.1) // 5000 samples at 50 kS/s
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(energy/0.1-1800) > 5 {
		t.Errorf("window mean = %v W, want ~1800", energy/0.1)
	}
	// 5000 samples / 1000 per batch = 5 power batches and nothing else.
	if g.Published() != 5 {
		t.Errorf("Published = %d, want 5", g.Published())
	}
	if g.SampleCount() != 5000 {
		t.Errorf("SampleCount = %d", g.SampleCount())
	}
	if len(pub.msgs) != 5 {
		t.Fatalf("messages = %d, want 5", len(pub.msgs))
	}
	for _, m := range pub.msgs {
		if m.topic != PowerTopic(7) || m.qos != 0 || m.retain {
			t.Fatalf("message on %q qos %d retain %v, want QoS 0 non-retained power", m.topic, m.qos, m.retain)
		}
		b, err := DecodeBatch(m.payload)
		if err != nil {
			t.Fatal(err)
		}
		if b.Node != 7 {
			t.Errorf("batch node = %d", b.Node)
		}
		if math.Abs(b.Dt-2e-5) > 1e-9 {
			t.Errorf("batch dt = %v, want 20 µs", b.Dt)
		}
	}
}

// discardPublisher accepts every publish and keeps nothing.
type discardPublisher struct{}

func (discardPublisher) Publish(string, []byte, byte, bool) error { return nil }

// TestWindowPublishAllocatesNothing: once a window is observed and the
// gateway's encode buffers have grown, publishing its batches allocates
// nothing — the topic is formatted once per gateway, not per window.
func TestWindowPublishAllocatesNothing(t *testing.T) {
	g := newGateway(t, discardPublisher{})
	var sig sensor.Signal = sensor.Const(1800) // boxed once, not per run
	var cur Cursor
	if _, err := g.PublishWindowResume(sig, 0, 0.1, &cur); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		cur.next, cur.done = 0, false // republish the observed window
		if _, err := g.PublishWindowResume(sig, 0, 0.1, &cur); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("window publish = %v allocs, want 0", allocs)
	}
	if g.Published() != 5*102 { // the first window, AllocsPerRun's warm-up, 100 runs
		t.Errorf("Published = %d, want %d", g.Published(), 5*102)
	}
	g.NodeID = 8 // a changed node ID publishes on its own topic
	pub := &memPublisher{}
	g.Pub = pub
	if _, err := g.PublishWindow(sig, 0, 0.1); err != nil {
		t.Fatal(err)
	}
	if pub.msgs[0].topic != PowerTopic(8) {
		t.Errorf("topic after NodeID change = %q, want %q", pub.msgs[0].topic, PowerTopic(8))
	}
}

func TestPublishWindowTimestampsUseClock(t *testing.T) {
	pub := &memPublisher{}
	mon, err := monitors.NewBuiltin(monitors.EnergyGateway, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	clock, err := ptp.NewClock(5e-3, 0, 0, 2) // 5 ms off on purpose
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(1, mon, clock, pub, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.PublishWindow(sensor.Const(100), 10, 10.01); err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBatch(pub.msgs[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	// First sample stamped with gateway time = 10 + 5 ms.
	if math.Abs(b.T0-10.005) > 1e-6 {
		t.Errorf("T0 = %v, want 10.005", b.T0)
	}
}

func TestPublishWindowErrors(t *testing.T) {
	pub := &memPublisher{}
	g := newGateway(t, pub)
	if _, err := g.PublishWindow(sensor.Const(1), 1, 1); err == nil {
		t.Error("empty window should error")
	}
	if _, err := g.PublishWindow(sensor.Const(1), 0, 1e-6); err == nil {
		t.Error("sub-sample window should error")
	}
	failing := &memPublisher{failAfter: 1}
	g2 := newGateway(t, failing)
	if _, err := g2.PublishWindow(sensor.Const(1), 0, 0.1); err == nil {
		t.Error("publisher failure should propagate")
	}
}

func TestOverheadModel(t *testing.T) {
	m := DefaultOverheadModel()
	// In-band at the EG's 50 kS/s on a 16-core node: 2 µs x 50k = 10% of
	// one core = 0.625% of the node — measurable, as Hackenberg warns.
	s, err := m.InBandSlowdown(50e3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.00625) > 1e-9 {
		t.Errorf("in-band slowdown = %v, want 0.625%%", s)
	}
	if m.OutOfBandSlowdown() != 0 {
		t.Error("out-of-band slowdown must be zero")
	}
	// IPMI-rate in-band monitoring is negligible; the trade-off is rate.
	slow, err := m.InBandSlowdown(1, 16)
	if err != nil || slow > 1e-6 {
		t.Errorf("1 S/s in-band slowdown = %v", slow)
	}
	if _, err := m.InBandSlowdown(-1, 16); err == nil {
		t.Error("negative rate should error")
	}
	if _, err := m.InBandSlowdown(1000, 0); err == nil {
		t.Error("zero cores should error")
	}
	// Saturating rate: cannot exceed one core.
	s, err = m.InBandSlowdown(1e9, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s > 1.0/16+1e-9 {
		t.Errorf("saturated slowdown = %v", s)
	}
}

func TestStatsAccumulateAcrossWindows(t *testing.T) {
	pub := &memPublisher{}
	g := newGateway(t, pub)
	sig := sensor.Const(500)
	e1, err := g.PublishWindow(sig, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := g.Stats()
	if first.Samples != g.SampleCount() || first.Batches != g.Published() {
		t.Errorf("Stats %+v disagree with SampleCount/Published %d/%d",
			first, g.SampleCount(), g.Published())
	}
	if math.Abs(first.EnergyJ-e1) > 1e-12 {
		t.Errorf("EnergyJ = %v, want %v", first.EnergyJ, e1)
	}
	e2, err := g.PublishWindow(sig, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	second := g.Stats()
	if second.Samples <= first.Samples || second.Batches <= first.Batches {
		t.Errorf("stats did not accumulate: %+v -> %+v", first, second)
	}
	if math.Abs(second.EnergyJ-(e1+e2)) > 1e-12 {
		t.Errorf("cumulative EnergyJ = %v, want %v", second.EnergyJ, e1+e2)
	}
}
