package mqtt

import (
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestSlowSubscriberDropsNotBlocks: a subscriber that never reads must not
// stall the broker; QoS-0 messages to it are dropped once its queue fills
// (mosquitto's max_queued_messages behaviour), while a subscriber that
// keeps up with the publisher receives every message.
func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: skipped in -short")
	}
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	b.QueueDepth = 8 // tiny queue to force drops quickly

	// The slow subscriber: raw TCP, completes CONNECT+SUBSCRIBE, then
	// never reads again.
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := (&ConnectPacket{ClientID: "sloth", CleanSession: true}).encode(conn); err != nil {
		t.Fatal(err)
	}
	hdr, err := ReadFixedHeader(conn)
	if err != nil || hdr.Type != CONNACK {
		t.Fatal(err, hdr)
	}
	if _, err := conn.Read(make([]byte, hdr.Length)); err != nil {
		t.Fatal(err)
	}
	if err := (&SubscribePacket{PacketID: 1, Subs: []Subscription{{Filter: "#", QoS: 0}}}).encode(conn); err != nil {
		t.Fatal(err)
	}
	// Drain the SUBACK then stop reading forever.
	hdr, err = ReadFixedHeader(conn)
	if err != nil || hdr.Type != SUBACK {
		t.Fatal(err, hdr)
	}
	if _, err := conn.Read(make([]byte, hdr.Length)); err != nil {
		t.Fatal(err)
	}

	// A healthy subscriber on the same topic.
	const msgs = 2000
	var healthy atomic.Int64
	received := make(chan struct{}, msgs) // one token per delivery, never blocks the read loop
	good := dialTest(t, b.Addr(), "healthy", func(Message) {
		healthy.Add(1)
		received <- struct{}{}
	})
	if err := good.Subscribe(Subscription{Filter: "#", QoS: 0}); err != nil {
		t.Fatal(err)
	}

	pub := dialTest(t, b.Addr(), "pub", nil)
	payload := bytes.Repeat([]byte("x"), 4096)
	// QueueDepth bounds every session, the healthy one too, and a PUBACK
	// says the broker routed a message, not that any subscriber got it:
	// Broker.route never blocks. So the publisher paces itself on the
	// healthy subscriber's own receipt, at most window messages ahead
	// (half the queue), while the sloth's TCP pipe clogs.
	const window = 4
	for i := 0; i < msgs; i++ {
		if i >= window {
			select {
			case <-received:
			case <-time.After(10 * time.Second):
				t.Fatalf("healthy subscriber stalled at %d with %d published", healthy.Load(), i)
			}
		}
		if err := pub.Publish("flood/topic", payload, 1, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return healthy.Load() == msgs }, "healthy subscriber delivery")
	waitFor(t, func() bool { return b.Stats.Dropped.Load() > 0 }, "drops on the slow subscriber")
}

// TestLargePayloadRoundTrip exercises multi-byte remaining-length framing
// end to end.
func TestLargePayloadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: skipped in -short")
	}
	b := newTestBroker(t)
	got := make(chan Message, 1)
	sub := dialTest(t, b.Addr(), "sub", func(m Message) { got <- m.Clone() })
	if err := sub.Subscribe(Subscription{Filter: "big", QoS: 1}); err != nil {
		t.Fatal(err)
	}
	pub := dialTest(t, b.Addr(), "pub", nil)
	payload := bytes.Repeat([]byte{0xA5}, 300_000) // needs 3-byte remaining length
	if err := pub.Publish("big", payload, 1, false); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if !bytes.Equal(m.Payload, payload) {
			t.Error("large payload corrupted in transit")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("large payload never delivered")
	}
}

// Property: every valid concrete topic matches itself as a filter, and is
// matched by "#".
func TestTopicSelfMatchProperty(t *testing.T) {
	f := func(levelsRaw []byte) bool {
		// Build a topic from arbitrary bytes, sanitising into valid
		// levels (non-wildcard, non-NUL, non-slash).
		var levels []string
		for _, c := range levelsRaw {
			if len(levels) >= 6 {
				break
			}
			ch := rune('a' + c%26)
			levels = append(levels, strings.Repeat(string(ch), int(c%3)+1))
		}
		if len(levels) == 0 {
			levels = []string{"x"}
		}
		topic := strings.Join(levels, "/")
		if err := ValidateTopicName(topic); err != nil {
			return false
		}
		return TopicMatches(topic, topic) && TopicMatches("#", topic)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a single-level "+" wildcard substituted at any level of a
// topic still matches it.
func TestPlusWildcardProperty(t *testing.T) {
	f := func(a, b, c byte, pos uint8) bool {
		levels := []string{
			string(rune('a' + a%26)),
			string(rune('a' + b%26)),
			string(rune('a' + c%26)),
		}
		topic := strings.Join(levels, "/")
		i := int(pos) % 3
		withPlus := make([]string, 3)
		copy(withPlus, levels)
		withPlus[i] = "+"
		return TopicMatches(strings.Join(withPlus, "/"), topic)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
