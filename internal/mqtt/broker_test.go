package mqtt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// transports are the listen addresses the ordering invariants run over:
// TCP on loopback and the in-process transport a Plane uses. Equal
// deliveries on both are the in-process conn's differential test.
var transports = []struct{ name, listen string }{
	{"tcp", "127.0.0.1:0"},
	{"pipe", pipeScheme},
}

// forEachTransport runs test as one subtest per transport.
func forEachTransport(t *testing.T, test func(t *testing.T, listen string)) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) { test(t, tr.listen) })
	}
}

// newTestBroker starts a broker on a random loopback port.
func newTestBroker(t *testing.T) *Broker {
	t.Helper()
	return newTestBrokerOn(t, "127.0.0.1:0")
}

func newTestBrokerOn(t *testing.T, listen string) *Broker {
	t.Helper()
	b, err := NewBroker(listen)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return b
}

func dialTest(t *testing.T, addr, id string, onMsg MessageHandler) *Client {
	t.Helper()
	c, err := Dial(addr, ClientOptions{ClientID: id, CleanSession: true, OnMessage: onMsg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timeout waiting for " + msg)
}

func TestPublishSubscribeQoS0(t *testing.T) {
	b := newTestBroker(t)
	var got atomic.Value
	sub := dialTest(t, b.Addr(), "sub", func(m Message) { got.Store(m.Clone()) })
	if err := sub.Subscribe(Subscription{Filter: "davide/+/power", QoS: 0}); err != nil {
		t.Fatal(err)
	}
	pub := dialTest(t, b.Addr(), "pub", nil)
	if err := pub.Publish("davide/node01/power", []byte("1890.5"), 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() != nil }, "message delivery")
	m := got.Load().(Message)
	if m.Topic != "davide/node01/power" || string(m.Payload) != "1890.5" {
		t.Errorf("got %+v", m)
	}
}

func TestPublishQoS1EndToEnd(t *testing.T) {
	b := newTestBroker(t)
	var count atomic.Int64
	sub := dialTest(t, b.Addr(), "sub", func(m Message) { count.Add(1) })
	if err := sub.Subscribe(Subscription{Filter: "t/#", QoS: 1}); err != nil {
		t.Fatal(err)
	}
	pub := dialTest(t, b.Addr(), "pub", nil)
	for i := 0; i < 20; i++ {
		if err := pub.Publish(fmt.Sprintf("t/%d", i), []byte("x"), 1, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return count.Load() == 20 }, "all QoS1 messages")
	if b.Stats.PublishesIn.Load() != 20 {
		t.Errorf("PublishesIn = %d", b.Stats.PublishesIn.Load())
	}
}

// TestPubackFollowsRouting pins the ordering a fence on another session
// relies on (Bridge.Drain): once a QoS-1 publisher holds its PUBACK, the
// message is already queued on every subscriber session, so a round trip
// on the subscriber's session started afterwards returns behind it.
func TestPubackFollowsRouting(t *testing.T) { forEachTransport(t, testPubackFollowsRouting) }

func testPubackFollowsRouting(t *testing.T, listen string) {
	b := newTestBrokerOn(t, listen)
	var got atomic.Int64
	sub := dialTest(t, b.Addr(), "sub", func(Message) { got.Add(1) })
	if err := sub.Subscribe(Subscription{Filter: "davide/+/energy", QoS: 1}); err != nil {
		t.Fatal(err)
	}
	pub := dialTest(t, b.Addr(), "pub", nil)
	for i := int64(1); i <= 300; i++ {
		if err := pub.Publish("davide/node01/energy", []byte("42"), 1, false); err != nil {
			t.Fatal(err)
		}
		if err := sub.Unsubscribe("fence/never-subscribed"); err != nil {
			t.Fatal(err)
		}
		if n := got.Load(); n != i {
			t.Fatalf("after publish %d was acknowledged and the subscriber's fence returned, it had %d messages", i, n)
		}
	}
}

// TestFenceFollowsSeenPublish is Bridge.Drain's premise at QoS 0, where
// no PUBACK orders the publisher behind routing: once one subscriber has
// received a message, a fence on another subscriber's session returns
// only after that session has it too.
func TestFenceFollowsSeenPublish(t *testing.T) { forEachTransport(t, testFenceFollowsSeenPublish) }

func testFenceFollowsSeenPublish(t *testing.T, listen string) {
	b := newTestBrokerOn(t, listen)
	seen := make(chan struct{}, 1)
	var got atomic.Int64
	first := dialTest(t, b.Addr(), "first", func(Message) { seen <- struct{}{} })
	fenced := dialTest(t, b.Addr(), "fenced", func(Message) { got.Add(1) })
	for _, c := range []*Client{first, fenced} {
		if err := c.Subscribe(Subscription{Filter: "davide/+/power", QoS: 0}); err != nil {
			t.Fatal(err)
		}
	}
	pub := dialTest(t, b.Addr(), "pub", nil)
	for i := int64(1); i <= 300; i++ {
		if err := pub.Publish("davide/node01/power", []byte("42"), 0, false); err != nil {
			t.Fatal(err)
		}
		select {
		case <-seen:
		case <-time.After(5 * time.Second):
			t.Fatalf("publish %d never reached the first subscriber", i)
		}
		if err := fenced.Unsubscribe("fence/never-subscribed"); err != nil {
			t.Fatal(err)
		}
		if n := got.Load(); n != i {
			t.Fatalf("after the first subscriber saw publish %d and the other's fence returned, it had %d messages", i, n)
		}
	}
}

func TestNoDeliveryWithoutMatchingSubscription(t *testing.T) {
	b := newTestBroker(t)
	var count atomic.Int64
	sub := dialTest(t, b.Addr(), "sub", func(m Message) { count.Add(1) })
	if err := sub.Subscribe(Subscription{Filter: "only/this", QoS: 0}); err != nil {
		t.Fatal(err)
	}
	pub := dialTest(t, b.Addr(), "pub", nil)
	if err := pub.Publish("something/else", []byte("x"), 1, false); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("only/this", []byte("y"), 1, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return count.Load() == 1 }, "exactly one delivery")
	time.Sleep(20 * time.Millisecond)
	if count.Load() != 1 {
		t.Errorf("deliveries = %d, want 1", count.Load())
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := newTestBroker(t)
	var count atomic.Int64
	sub := dialTest(t, b.Addr(), "sub", func(m Message) { count.Add(1) })
	if err := sub.Subscribe(Subscription{Filter: "x", QoS: 0}); err != nil {
		t.Fatal(err)
	}
	pub := dialTest(t, b.Addr(), "pub", nil)
	if err := pub.Publish("x", []byte("1"), 1, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return count.Load() == 1 }, "first delivery")
	if err := sub.Unsubscribe("x"); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("x", []byte("2"), 1, false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if count.Load() != 1 {
		t.Errorf("deliveries after unsubscribe = %d, want 1", count.Load())
	}
}

// TestRetainFlagIsRoutedNotStored: the broker keeps no retained store. A
// RETAIN publish reaches the current subscribers once with the flag
// cleared, and a later subscriber gets only what is published after it
// subscribed.
func TestRetainFlagIsRoutedNotStored(t *testing.T) {
	b := newTestBroker(t)
	const topic = "davide/node05/caps"
	var mu sync.Mutex
	logs := map[string][]string{}
	record := func(id string) MessageHandler {
		return func(m Message) {
			mu.Lock()
			logs[id] = append(logs[id], fmt.Sprintf("%s retained=%v", m.Payload, m.Retained))
			mu.Unlock()
		}
	}
	live := dialTest(t, b.Addr(), "live", record("live"))
	if err := live.Subscribe(Subscription{Filter: topic, QoS: 1}); err != nil {
		t.Fatal(err)
	}
	pub := dialTest(t, b.Addr(), "pub", nil)
	// QoS 1: the PUBACK follows routing, so both publishes are queued
	// for every current subscriber when Publish returns.
	if err := pub.Publish(topic, []byte("1800"), 1, true); err != nil {
		t.Fatal(err)
	}
	late := dialTest(t, b.Addr(), "late", record("late"))
	if err := late.Subscribe(Subscription{Filter: topic, QoS: 1}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(topic, []byte("marker"), 1, false); err != nil {
		t.Fatal(err)
	}
	// Fence both sessions: the UNSUBACK trails every copy queued before it.
	for _, c := range []*Client{live, late} {
		if err := c.Unsubscribe("fence/never-subscribed"); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[string]string{
		"live": "[1800 retained=false marker retained=false]",
		"late": "[marker retained=false]",
	}
	for id, w := range want {
		if g := fmt.Sprint(logs[id]); g != w {
			t.Errorf("%s subscriber got %s, want %s", id, g, w)
		}
	}
}

func TestMultipleSubscribersFanOut(t *testing.T) {
	b := newTestBroker(t)
	const nSubs = 8
	var counts [nSubs]atomic.Int64
	for i := 0; i < nSubs; i++ {
		i := i
		sub := dialTest(t, b.Addr(), fmt.Sprintf("sub%d", i), func(m Message) { counts[i].Add(1) })
		if err := sub.Subscribe(Subscription{Filter: "fan/#", QoS: 0}); err != nil {
			t.Fatal(err)
		}
	}
	pub := dialTest(t, b.Addr(), "pub", nil)
	if err := pub.Publish("fan/out", []byte("x"), 1, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for i := range counts {
			if counts[i].Load() != 1 {
				return false
			}
		}
		return true
	}, "fan-out to all subscribers")
}

func TestOverlappingSubscriptionsSingleDelivery(t *testing.T) {
	// MQTT delivers one copy per client even when several filters match.
	b := newTestBroker(t)
	var count atomic.Int64
	sub := dialTest(t, b.Addr(), "sub", func(m Message) { count.Add(1) })
	if err := sub.Subscribe(
		Subscription{Filter: "a/#", QoS: 0},
		Subscription{Filter: "a/+", QoS: 1},
	); err != nil {
		t.Fatal(err)
	}
	pub := dialTest(t, b.Addr(), "pub", nil)
	if err := pub.Publish("a/b", []byte("x"), 1, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return count.Load() >= 1 }, "delivery")
	time.Sleep(30 * time.Millisecond)
	if count.Load() != 1 {
		t.Errorf("deliveries = %d, want exactly 1", count.Load())
	}
}

func TestClientIDTakeover(t *testing.T) {
	b := newTestBroker(t)
	c1 := dialTest(t, b.Addr(), "same-id", nil)
	_ = dialTest(t, b.Addr(), "same-id", nil)
	select {
	case <-c1.Done():
		// first connection was closed by the takeover
	case <-time.After(5 * time.Second):
		t.Fatal("old session not closed on takeover")
	}
	waitFor(t, func() bool { return b.Stats.Connections.Load() == 1 }, "single session")
}

func TestBrokerStats(t *testing.T) {
	b := newTestBroker(t)
	sub := dialTest(t, b.Addr(), "sub", func(Message) {})
	if err := sub.Subscribe(Subscription{Filter: "#", QoS: 0}); err != nil {
		t.Fatal(err)
	}
	pub := dialTest(t, b.Addr(), "pub", nil)
	for i := 0; i < 5; i++ {
		if err := pub.Publish("s", []byte("x"), 1, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return b.Stats.PublishesOut.Load() == 5 }, "stats")
	if b.Stats.TotalConnects.Load() != 2 {
		t.Errorf("TotalConnects = %d", b.Stats.TotalConnects.Load())
	}
	if b.Stats.BytesIn.Load() == 0 || b.Stats.BytesOut.Load() == 0 {
		t.Error("byte counters should be non-zero")
	}
}

func TestBrokerCloseIdempotent(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", ClientOptions{ClientID: "x", ConnectWait: 200 * time.Millisecond}); err == nil {
		t.Error("dial to closed port should error")
	}
	b := newTestBroker(t)
	if _, err := Dial(b.Addr(), ClientOptions{}); err == nil {
		t.Error("empty client ID should error")
	}
}

func TestPublishValidationOnClient(t *testing.T) {
	b := newTestBroker(t)
	c := dialTest(t, b.Addr(), "c", nil)
	if err := c.Publish("bad/+/topic", []byte("x"), 0, false); err == nil {
		t.Error("wildcard publish should error")
	}
	if err := c.Publish("t", []byte("x"), 2, false); err == nil {
		t.Error("QoS 2 should error")
	}
	if err := c.Subscribe(); err == nil {
		t.Error("empty subscribe should error")
	}
	if err := c.Unsubscribe(); err == nil {
		t.Error("empty unsubscribe should error")
	}
}

func TestClosedClientOperations(t *testing.T) {
	b := newTestBroker(t)
	c := dialTest(t, b.Addr(), "c", nil)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := c.Publish("t", nil, 0, false); err == nil {
		t.Error("publish after close should error")
	}
	if err := c.Subscribe(Subscription{Filter: "t"}); err == nil {
		t.Error("subscribe after close should error")
	}
}

func TestKeepAlivePing(t *testing.T) {
	b := newTestBroker(t)
	c, err := Dial(b.Addr(), ClientOptions{ClientID: "pinger", KeepAlive: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// Stay connected for several keepalive periods; the broker would cut
	// us off at 1.5x keepalive without PINGREQs.
	time.Sleep(300 * time.Millisecond)
	select {
	case <-c.Done():
		t.Fatal("client disconnected despite pings")
	default:
	}
	if err := c.Publish("still/alive", []byte("1"), 1, false); err != nil {
		t.Errorf("publish after idle: %v", err)
	}
}

func TestConcurrentPublishers(t *testing.T) {
	b := newTestBroker(t)
	var received atomic.Int64
	sub := dialTest(t, b.Addr(), "sub", func(Message) { received.Add(1) })
	if err := sub.Subscribe(Subscription{Filter: "load/#", QoS: 1}); err != nil {
		t.Fatal(err)
	}
	const pubs, msgs = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(b.Addr(), ClientOptions{ClientID: fmt.Sprintf("pub%d", p), ConnectWait: 5 * time.Second})
			if err != nil {
				t.Error(err)
				return
			}
			defer func() { _ = c.Close() }()
			for m := 0; m < msgs; m++ {
				if err := c.Publish(fmt.Sprintf("load/%d/%d", p, m), []byte("v"), 1, false); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return received.Load() == pubs*msgs }, "all concurrent messages")
}
