package mqtt

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestFanoutEncodesOnce checks that a message fanned out to N same-QoS
// subscribers is encoded once and shared: N-1 deliveries count as
// encode-once hits, and every subscriber still receives identical bytes.
func TestFanoutEncodesOnce(t *testing.T) {
	b := newTestBroker(t)
	const subs = 4
	payload := []byte(`{"node":1,"t0":0,"dt":0.02,"p":[400,400,400]}`)
	var received [subs]atomic.Pointer[[]byte]
	for i := 0; i < subs; i++ {
		i := i
		c := dialTest(t, b.Addr(), fmt.Sprintf("fan%d", i), func(m Message) {
			p := append([]byte(nil), m.Payload...)
			received[i].Store(&p)
		})
		if err := c.Subscribe(Subscription{Filter: "davide/+/power", QoS: 0}); err != nil {
			t.Fatal(err)
		}
	}
	pub := dialTest(t, b.Addr(), "fan-pub", nil)
	if err := pub.Publish("davide/node01/power", payload, 0, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for i := range received {
			if received[i].Load() == nil {
				return false
			}
		}
		return true
	}, "fan-out delivery")
	for i := range received {
		if got := *received[i].Load(); !bytes.Equal(got, payload) {
			t.Errorf("subscriber %d payload corrupted: %q", i, got)
		}
	}
	if hits := b.Stats.FanoutEncodedOnce.Load(); hits != subs-1 {
		t.Errorf("FanoutEncodedOnce = %d, want %d (one encoding shared by %d subscribers)",
			hits, subs-1, subs)
	}
}

// TestMixedQoSFanoutSharesPerClass: QoS-0 and QoS-1 subscribers need
// different encodings (packet ID), but subscribers within a class share.
func TestMixedQoSFanoutSharesPerClass(t *testing.T) {
	b := newTestBroker(t)
	var n atomic.Int64
	mk := func(id string, qos byte) {
		c := dialTest(t, b.Addr(), id, func(m Message) { n.Add(1) })
		if err := c.Subscribe(Subscription{Filter: "t", QoS: qos}); err != nil {
			t.Fatal(err)
		}
	}
	mk("q0a", 0)
	mk("q0b", 0)
	mk("q1a", 1)
	mk("q1b", 1)
	pub := dialTest(t, b.Addr(), "pub", nil)
	if err := pub.Publish("t", []byte("x"), 1, false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return n.Load() == 4 }, "mixed-QoS delivery")
	// 4 subscribers, 2 QoS classes -> 2 encodings, 2 shared deliveries.
	if hits := b.Stats.FanoutEncodedOnce.Load(); hits != 2 {
		t.Errorf("FanoutEncodedOnce = %d, want 2", hits)
	}
}

// TestPooledBufferReuse drives enough packets through broker and client
// that both report read-buffer reuse, and a publisher reports encode
// buffer reuse.
func TestPooledBufferReuse(t *testing.T) {
	b := newTestBroker(t)
	var got atomic.Int64
	sub := dialTest(t, b.Addr(), "sub", func(m Message) { got.Add(1) })
	if err := sub.Subscribe(Subscription{Filter: "t", QoS: 0}); err != nil {
		t.Fatal(err)
	}
	pub := dialTest(t, b.Addr(), "pub", nil)
	const msgs = 50
	for i := 0; i < msgs; i++ {
		if err := pub.Publish("t", []byte("payload-of-modest-size"), 0, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return got.Load() == msgs }, "delivery")
	if r := b.Stats.BufReuses.Load(); r == 0 {
		t.Error("broker reported no pooled read-buffer reuse")
	}
	if r := pub.Stats.BufReuses.Load(); r == 0 {
		t.Error("publisher reported no encode-buffer reuse")
	}
	if r := sub.Stats.BufReuses.Load(); r == 0 {
		t.Error("subscriber reported no pooled read-buffer reuse")
	}
}
