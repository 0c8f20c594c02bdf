package mqtt

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// bridgeFixture is a two-tier fabric in miniature: a rack broker, a
// spine broker, a bridge between them, and a spine-side subscriber
// recording everything that crosses the uplink.
type bridgeFixture struct {
	rack, spine *Broker
	bridge      *Bridge
	mu          sync.Mutex
	got         map[string]int // payload -> deliveries
}

func newBridgeFixture(t *testing.T, listen string, opts BridgeOptions) *bridgeFixture {
	t.Helper()
	return newTracedBridgeFixture(t, listen, opts, nil)
}

// newTracedBridgeFixture is newBridgeFixture with spineTrace installed
// as the spine broker's Trace hook before the uplink dials.
func newTracedBridgeFixture(t *testing.T, listen string, opts BridgeOptions, spineTrace func(topic string, payload []byte)) *bridgeFixture {
	t.Helper()
	f := &bridgeFixture{
		rack:  newTestBrokerOn(t, listen),
		spine: newTestBrokerOn(t, listen),
		got:   make(map[string]int),
	}
	f.spine.Trace = spineTrace
	sub := dialTest(t, f.spine.Addr(), "spine-sub", func(m Message) {
		f.mu.Lock()
		f.got[string(m.Payload)]++
		f.mu.Unlock()
	})
	if err := sub.Subscribe(
		Subscription{Filter: "davide/+/power", QoS: 0},
		Subscription{Filter: "davide/+/energy", QoS: 1},
	); err != nil {
		t.Fatal(err)
	}
	if opts.Name == "" {
		opts.Name = "b0"
	}
	if opts.Filters == nil {
		opts.Filters = []Subscription{
			{Filter: "davide/+/power", QoS: 0},
			{Filter: "davide/+/energy", QoS: 1},
		}
	}
	br, err := NewBridge(f.rack.Addr(), f.spine.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = br.Close() })
	f.bridge = br
	return f
}

func (f *bridgeFixture) delivered(payload string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.got[payload]
}

func (f *bridgeFixture) distinct() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.got)
}

func TestBridgeForwardsMatchingTopics(t *testing.T) {
	f := newBridgeFixture(t, "127.0.0.1:0", BridgeOptions{})
	pub := dialTest(t, f.rack.Addr(), "gw", nil)
	for i := 0; i < 10; i++ {
		if err := pub.Publish("davide/node01/power", []byte(fmt.Sprintf("p%d", i)), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Publish("davide/node01/energy", []byte("e0"), 1, true); err != nil {
		t.Fatal(err)
	}
	// Off-tree topics must not cross the uplink.
	if err := pub.Publish("other/noise", []byte("noise"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return f.distinct() == 11 }, "bridged delivery")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.bridge.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if f.delivered("noise") != 0 {
		t.Error("off-tree topic crossed the bridge")
	}
	st := f.bridge.Stats()
	if st.Forwarded != 11 || st.Dropped != 0 {
		t.Errorf("stats = %+v, want Forwarded 11, Dropped 0", st)
	}
	if st.ForwardedBytes == 0 {
		t.Error("ForwardedBytes not accounted")
	}
}

// TestBridgeDrainCoversRoutedMessages: once the rack broker has routed a
// message (the closing QoS-1 PUBACK says so for everything before it on
// the connection), Drain must wait for it even if it is still on its way
// to the bridge's source session, and until the spine has read every
// message the bridge forwarded, not only until the uplink wrote it.
// Plane.Stream's forwarded counts and the same-seed snapshot contract
// (the spine's publishes-in series) rest on this.
//
// The bridge takes both topics at QoS 0, as a plane's bridges do, so no
// uplink PUBACK marks the end of a round. The spine's Trace hook runs in
// the uplink session's serve loop after PublishesIn is counted and before
// the next packet is read, so a hook that sleeps holds the spine's reader
// back: each round's 200 KiB is still unread on the uplink connection
// when the bridge has written it, and a Drain that does not wait for the
// spine fails on an idle machine.
func TestBridgeDrainCoversRoutedMessages(t *testing.T) {
	forEachTransport(t, testBridgeDrainCoversRoutedMessages)
}

func testBridgeDrainCoversRoutedMessages(t *testing.T, listen string) {
	slowSpine := func(string, []byte) { time.Sleep(20 * time.Microsecond) }
	f := newTracedBridgeFixture(t, listen, BridgeOptions{Filters: []Subscription{
		{Filter: "davide/+/power", QoS: 0},
		{Filter: "davide/+/energy", QoS: 0},
	}}, slowSpine)
	pub := dialTest(t, f.rack.Addr(), "gw", nil)
	payload := make([]byte, 2048)
	total := int64(0)
	for round := 0; round < 20; round++ {
		for i := 0; i < 100; i++ {
			if err := pub.Publish("davide/node01/power", payload, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := pub.Publish("davide/node01/energy", payload, 1, false); err != nil {
			t.Fatal(err)
		}
		total += 101
		if err := f.bridge.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		st := f.bridge.Stats()
		if st.Forwarded+st.Dropped != total {
			t.Fatalf("round %d: drained with %d forwarded + %d dropped, want %d", round, st.Forwarded, st.Dropped, total)
		}
		if in := f.spine.Stats.PublishesIn.Load(); in != st.Forwarded {
			t.Fatalf("round %d: spine read %d publishes after Drain, want the %d forwarded", round, in, st.Forwarded)
		}
	}
}

// TestBridgeReconnectAfterSpineKick: the spine broker kicks the uplink
// session mid-stream (an operator action or a spine restart); the bridge
// must redial, and forwarding must resume on the new session. QoS-0
// messages in flight at the kick may be lost.
func TestBridgeReconnectAfterSpineKick(t *testing.T) {
	f := newBridgeFixture(t, "127.0.0.1:0", BridgeOptions{Name: "b1"})
	pub := dialTest(t, f.rack.Addr(), "gw", nil)
	const total = 120
	kicked := false
	for i := 0; i < total; i++ {
		if err := pub.Publish("davide/node01/power", []byte(fmt.Sprintf("p%03d", i)), 0, false); err != nil {
			t.Fatal(err)
		}
		if i == total/3 {
			// Let some traffic cross, then sever the uplink session.
			waitFor(t, func() bool { return f.distinct() > 0 }, "pre-kick delivery")
			kicked = f.spine.Kick("b1-up")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if !kicked {
		t.Fatal("spine had no uplink session to kick")
	}
	waitFor(t, func() bool { return f.bridge.Stats().UplinkRedials >= 1 }, "uplink redial")
	if err := pub.Publish("davide/node01/power", []byte("after"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return f.delivered("after") >= 1 }, "post-redial delivery")
}

// TestBridgeSourceRedial: if the rack broker kicks the bridge's
// subscriber session, the bridge must come back and resubscribe.
func TestBridgeSourceRedial(t *testing.T) {
	f := newBridgeFixture(t, "127.0.0.1:0", BridgeOptions{Name: "b2"})
	pub := dialTest(t, f.rack.Addr(), "gw", nil)
	if err := pub.Publish("davide/node01/power", []byte("before"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return f.delivered("before") == 1 }, "pre-kick delivery")
	if !f.rack.Kick("b2-src") {
		t.Fatal("rack had no bridge session to kick")
	}
	waitFor(t, func() bool { return f.bridge.Stats().SourceRedials == 1 }, "source redial")
	if err := pub.Publish("davide/node01/power", []byte("after"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return f.delivered("after") == 1 }, "post-redial delivery")
}

// gateLink blocks uplink deliveries until released — a stand-in for a
// slow spine that lets the test fill the bridge queue deterministically.
type gateLink struct {
	release chan struct{}
	quit    chan struct{}
}

func (g *gateLink) Send(m Message, deliver DeliverFunc) error {
	select {
	case <-g.release:
	case <-g.quit:
		return nil // drop silently during teardown
	}
	return deliver(m)
}

func (g *gateLink) Flush(DeliverFunc) error { return nil }

// TestBridgeBackpressureCountsDrops: with a stalled uplink and a full
// queue, new messages are dropped and counted instead of buffered
// without bound — the broker's own QoS-0 overflow policy, surfaced.
func TestBridgeBackpressureCountsDrops(t *testing.T) {
	gate := &gateLink{release: make(chan struct{}), quit: make(chan struct{})}
	defer close(gate.quit)
	f := newBridgeFixture(t, "127.0.0.1:0", BridgeOptions{Name: "b3", QueueDepth: 4, Link: gate})
	pub := dialTest(t, f.rack.Addr(), "gw", nil)
	// 1 message stalls in the forward goroutine, 4 fill the queue; the
	// rest must drop. Publish a healthy margin: QoS-0 delivery to the
	// bridge's source session is asynchronous.
	const total = 32
	for i := 0; i < total; i++ {
		if err := pub.Publish("davide/node01/power", []byte(fmt.Sprintf("p%d", i)), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return f.bridge.Stats().Dropped > 0 }, "backpressure drops")
	close(gate.release)
	waitFor(t, func() bool {
		st := f.bridge.Stats()
		return st.Forwarded+st.Dropped == total
	}, "every message accounted forwarded or dropped")
	if st := f.bridge.Stats(); st.HighWater < 4 {
		t.Errorf("stats = %+v, want queue high-water at depth", st)
	}
}
