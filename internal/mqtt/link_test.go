package mqtt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// testLink drops every second QoS-0 publish and holds every third,
// releasing holds on Flush — a minimal interceptor exercising every
// branch of the Link contract (drop, pass, buffer+clone, flush).
type testLink struct {
	n      int
	held   []Message
	sent   int
	passed int
}

func (l *testLink) Send(m Message, deliver DeliverFunc) error {
	if m.QoS != 0 {
		return deliver(m)
	}
	l.n++
	l.sent++
	switch l.n % 3 {
	case 0:
		l.held = append(l.held, m.Clone())
		return nil
	case 1:
		return nil // drop
	default:
		l.passed++
		return deliver(m)
	}
}

func (l *testLink) Flush(deliver DeliverFunc) error {
	for _, m := range l.held {
		if err := deliver(m); err != nil {
			return err
		}
		l.passed++
	}
	l.held = nil
	return nil
}

func TestClientLinkInterceptsPublishes(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var got atomic.Int64
	sub, err := Dial(b.Addr(), ClientOptions{
		ClientID:  "sub",
		OnMessage: func(Message) { got.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(Subscription{Filter: "t/#"}); err != nil {
		t.Fatal(err)
	}

	link := &testLink{}
	pub, err := Dial(b.Addr(), ClientOptions{ClientID: "pub", Link: link})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const n = 9
	for i := 0; i < n; i++ {
		if err := pub.Publish("t/p", []byte{byte(i)}, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	// QoS-1 bypasses the link's QoS-0 logic but still flows through Send.
	if err := pub.Publish("t/q1", []byte("billing"), 1, false); err != nil {
		t.Fatal(err)
	}
	if link.sent != n {
		t.Fatalf("link saw %d QoS-0 publishes, want %d", link.sent, n)
	}
	if len(link.held) != n/3 {
		t.Fatalf("link holds %d, want %d", len(link.held), n/3)
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(link.held) != 0 {
		t.Fatalf("flush left %d held", len(link.held))
	}
	// Wire publishes: passed QoS-0 (2 of each 3 minus drops = 3 passed +
	// 3 flushed) + 1 QoS-1.
	wantWire := int64(link.passed + 1)
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < wantWire && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != wantWire {
		t.Fatalf("subscriber got %d messages, want %d", got.Load(), wantWire)
	}
	if pubs := pub.Stats.Publishes.Load(); pubs != wantWire {
		t.Fatalf("client counted %d wire publishes, want %d", pubs, wantWire)
	}
}

func TestClientAbortDrainsBeforeReturning(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var got atomic.Int64
	sub, err := Dial(b.Addr(), ClientOptions{ClientID: "sub", OnMessage: func(Message) { got.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(Subscription{Filter: "#"}); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(b.Addr(), ClientOptions{ClientID: "crashy"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := c.Publish("t/x", []byte("payload-still-in-flight"), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	c.Abort()
	// Abort returns only after the broker consumed the stream and tore
	// the session down: everything already written must have been
	// routed, and the session must be gone (no takeover discard when a
	// same-ID client redials immediately).
	if !errors.Is(c.Err(), ErrAborted) {
		t.Fatalf("Err = %v, want ErrAborted", c.Err())
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done not closed after Abort")
	}
	if in := b.Stats.PublishesIn.Load(); in != n {
		t.Fatalf("broker ingested %d publishes before Abort returned, want %d", in, n)
	}
	c2, err := Dial(b.Addr(), ClientOptions{ClientID: "crashy"})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Publish("t/x", []byte("after reboot"), 0, false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < n+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != n+1 {
		t.Fatalf("subscriber got %d, want %d (pre-crash stream lost?)", got.Load(), n+1)
	}
	// Second Abort (and Abort after Close) is a no-op.
	c.Abort()
}

func TestBrokerKick(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	c, err := Dial(b.Addr(), ClientOptions{ClientID: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !b.Kick("victim") {
		t.Fatal("Kick(victim) = false, want true")
	}
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("client did not observe broker-side kick")
	}
	if b.Kick("nobody") {
		t.Fatal("Kick(nobody) = true, want false")
	}
	// The broker deregisters a session in its serveConn defer, which
	// runs asynchronously after the conn closes — wait until the victim
	// is gone, so the redial below is a fresh session, not a takeover.
	deadline := time.Now().Add(5 * time.Second)
	for b.Kick("victim") {
		if time.Now().After(deadline) {
			t.Fatal("victim session never deregistered")
		}
		time.Sleep(time.Millisecond)
	}

	// The kicked client ID reconnects and publishes again.
	again, err := Dial(b.Addr(), ClientOptions{ClientID: "victim"})
	if err != nil {
		t.Fatalf("reconnect after kick: %v", err)
	}
	defer again.Close()
	if err := again.Publish("t/x", []byte("back"), 1, false); err != nil {
		t.Fatal(err)
	}
}
