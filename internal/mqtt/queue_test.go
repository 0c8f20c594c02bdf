package mqtt

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// queueBroker is a broker with one hand-built subscriber session on
// "t/+" whose queue holds limit packets. Nothing drains it but the test.
func queueBroker(limit int) (*Broker, *session) {
	b := &Broker{sessions: map[string]*session{}}
	s := &session{id: "sub", q: outQueue{limit: limit}, subs: map[string]byte{"t/+": 0}, done: make(chan struct{})}
	b.sessions[s.id] = s
	b.reindex()
	return b, s
}

// routeByte routes a QoS-0 publish whose one-byte payload is v.
func routeByte(b *Broker, v byte) { b.route(&PublishPacket{Topic: "t/x", Payload: []byte{v}}) }

// popped drains q and returns the last byte of every packet in order: a
// routed publish's payload byte, or a control packet's packet-id byte.
func popped(q *outQueue) []byte {
	var got []byte
	for pkt := q.pop(); pkt != nil; pkt = q.pop() {
		got = append(got, pkt[len(pkt)-1])
	}
	return got
}

// TestOutQueueBoundOrderAndDrops: route queues at most QueueDepth packets,
// in order, drops the rest without blocking, and counts each drop.
func TestOutQueueBoundOrderAndDrops(t *testing.T) {
	b, s := queueBroker(8)
	for v := byte(0); v < 20; v++ {
		routeByte(b, v)
	}
	if out, dropped := b.Stats.PublishesOut.Load(), b.Stats.Dropped.Load(); out != 8 || dropped != 12 {
		t.Fatalf("PublishesOut, Dropped = %d, %d, want 8, 12", out, dropped)
	}
	if got, want := popped(&s.q), []byte{0, 1, 2, 3, 4, 5, 6, 7}; string(got) != string(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	// An emptied queue takes a full bound again.
	for v := byte(20); v < 30; v++ {
		routeByte(b, v)
	}
	if dropped := b.Stats.Dropped.Load(); dropped != 14 {
		t.Fatalf("Dropped = %d, want 14", dropped)
	}
	if got, want := popped(&s.q), []byte{20, 21, 22, 23, 24, 25, 26, 27}; string(got) != string(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
}

// TestOutQueueSendGoesAhead: a control packet send that waits for room
// takes the slot the writer frees next, so a publish routed after it
// began waiting is dropped, and one routed after it is queued behind it.
// Bridge.Drain's fences rely on this order.
func TestOutQueueSendGoesAhead(t *testing.T) {
	b, s := queueBroker(4)
	for v := byte(0); v < 4; v++ {
		routeByte(b, v)
	}
	sent := make(chan error, 1)
	go func() { sent <- b.send(s, encodedUnsuback(0xC0)) }()
	waitFor(t, func() bool { return s.q.waitingPushes() == 1 }, "send waiting on the full queue")
	routeByte(b, 4) // full: dropped
	if pkt := s.q.pop(); pkt[len(pkt)-1] != 0 {
		t.Fatalf("first pop %v, want publish 0", pkt)
	}
	routeByte(b, 5) // the freed slot went to the UNSUBACK, before send returns: dropped
	if err := <-sent; err != nil {
		t.Fatalf("send: %v", err)
	}
	if got, want := popped(&s.q), []byte{1, 2, 3, 0xC0}; string(got) != string(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	routeByte(b, 6)
	if got, want := popped(&s.q), []byte{6}; string(got) != string(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	if dropped := b.Stats.Dropped.Load(); dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", dropped)
	}

	// A send still waiting when the session ends fails.
	for v := byte(0); v < 4; v++ {
		routeByte(b, v)
	}
	go func() { sent <- b.send(s, encodedUnsuback(0xC1)) }()
	waitFor(t, func() bool { return s.q.waitingPushes() == 1 }, "send waiting on the full queue")
	s.closeOnce.Do(func() { close(s.done) })
	if err := <-sent; err == nil {
		t.Fatal("send on an ended session reported success")
	}
}

// TestOutQueueStorageFollowsHighWater: a queue that never held a packet
// holds no storage, and storage stays within twice the high-water mark
// and within the bound, while seeded pushes and pops keep FIFO order
// against a slice model.
func TestOutQueueStorageFollowsHighWater(t *testing.T) {
	for _, limit := range []int{1, 3, 8, 100, 1000} {
		q := outQueue{limit: limit}
		if q.ring != nil {
			t.Fatalf("limit %d: fresh queue holds %d slots", limit, len(q.ring))
		}
		rng := rand.New(rand.NewSource(int64(limit)))
		var model [][]byte
		high, next := 0, 0
		for step := 0; step < 20_000; step++ {
			// Pushes outweigh pops early, so the queue fills and drops.
			if rng.Intn(100) < 70-step/400 {
				pkt := []byte(fmt.Sprint(next))
				next++
				ok := q.tryPush(pkt)
				if ok != (len(model) < limit) {
					t.Fatalf("limit %d step %d: tryPush = %v with %d queued", limit, step, ok, len(model))
				}
				if ok {
					model = append(model, pkt)
				}
			} else {
				pkt := q.pop()
				if len(model) == 0 {
					if pkt != nil {
						t.Fatalf("limit %d step %d: empty queue popped %q", limit, step, pkt)
					}
					continue
				}
				if string(pkt) != string(model[0]) {
					t.Fatalf("limit %d step %d: popped %q, want %q", limit, step, pkt, model[0])
				}
				model = model[1:]
			}
			high = max(high, len(model))
			if n := len(q.ring); n > 2*high || n > limit {
				t.Fatalf("limit %d step %d: %d slots at high-water %d", limit, step, n, high)
			}
		}
		if high != limit {
			t.Errorf("limit %d: high-water %d; the run never filled the queue", limit, high)
		}
	}
}

// TestOutQueuePublishOnlySessionsHoldNone: 64 QoS-0 gateways that never
// subscribe hold no queue storage after publishing, while the subscriber
// they publish to does.
func TestOutQueuePublishOnlySessionsHoldNone(t *testing.T) {
	forEachTransport(t, func(t *testing.T, listen string) {
		const gateways, msgs = 64, 32
		b := newTestBrokerOn(t, listen)
		var got atomic.Int64
		sub := dialTest(t, b.Addr(), "ingest", func(Message) { got.Add(1) })
		if err := sub.Subscribe(Subscription{Filter: "davide/+/power", QoS: 0}); err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 64)
		for g := 0; g < gateways; g++ {
			c := dialTest(t, b.Addr(), fmt.Sprintf("gw%02d", g), nil)
			for i := 0; i < msgs; i++ {
				if err := c.Publish(fmt.Sprintf("davide/node%02d/power", g), payload, 0, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		waitFor(t, func() bool { return got.Load()+b.Stats.Dropped.Load() == gateways*msgs }, "every publish routed")
		for g := 0; g < gateways; g++ {
			id := fmt.Sprintf("gw%02d", g)
			if slots, ok := b.queueSlots(id); !ok || slots != 0 {
				t.Errorf("%s: %d queue slots (registered %v), want 0", id, slots, ok)
			}
		}
		if slots, ok := b.queueSlots("ingest"); !ok || slots == 0 {
			t.Errorf("ingest: %d queue slots (registered %v), want some", slots, ok)
		}
	})
}
