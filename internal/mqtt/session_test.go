package mqtt

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settledGoroutines returns runtime.NumGoroutine once it has held still
// over a few reads: the read loops of clients an earlier test closed may
// still be on their way out.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 5; {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// brokerGoroutines counts the goroutines running a Broker method: the
// accept loop, session readers and session writers.
func brokerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("mqtt.(*Broker)."))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestPublishOnlySessionsStartNoWriter: 64 QoS-0 gateway sessions that
// never subscribe add two goroutines each, the broker's session reader
// and the client's read loop, and no writer: nothing is ever queued on
// them, so none is started.
func TestPublishOnlySessionsStartNoWriter(t *testing.T) {
	const gateways = 64
	b := newTestBrokerOn(t, pipeScheme)
	var got atomic.Int64
	sub := dialTest(t, b.Addr(), "ingest", func(Message) { got.Add(1) })
	if err := sub.Subscribe(Subscription{Filter: "davide/+/power", QoS: 0}); err != nil {
		t.Fatal(err)
	}
	before := settledGoroutines()
	for g := range gateways {
		c := dialTest(t, b.Addr(), fmt.Sprintf("gw%02d", g), nil)
		if err := c.Publish(fmt.Sprintf("davide/node%02d/power", g), []byte{byte(g)}, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	// Every publish delivered means every session was read past its
	// CONNECT and first PUBLISH.
	waitFor(t, func() bool { return got.Load() == gateways }, "every publish delivered")
	added := settledGoroutines() - before
	if per := float64(added) / gateways; per != 2 {
		t.Errorf("%d publish-only sessions added %d goroutines (%.2f each), want 2 each", gateways, added, per)
	}
}

// rawSession connects to b with a bare CONNECT and reads the CONNACK,
// leaving the connection for the test to speak packets on.
func rawSession(t *testing.T, b *Broker, id string) net.Conn {
	t.Helper()
	conn, err := dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := (&ConnectPacket{ClientID: id, CleanSession: true}).encode(conn); err != nil {
		t.Fatal(err)
	}
	if typ, _ := readRaw(t, conn); typ != CONNACK {
		t.Fatalf("got %v, want CONNACK", typ)
	}
	return conn
}

// readRaw reads one packet off conn.
func readRaw(t *testing.T, conn net.Conn) (PacketType, []byte) {
	t.Helper()
	hdr, err := ReadFixedHeader(conn)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, hdr.Length)
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatal(err)
	}
	return hdr.Type, body
}

// TestFirstQueuedPacketStartsWriter: whatever a session's first queued
// packet is, a SUBACK or a PINGRESP from send or a publish from route,
// it starts the session's writer and reaches the client.
func TestFirstQueuedPacketStartsWriter(t *testing.T) {
	forEachTransport(t, func(t *testing.T, listen string) {
		b := newTestBrokerOn(t, listen)
		t.Run("suback", func(t *testing.T) {
			conn := rawSession(t, b, "suback")
			sp := &SubscribePacket{PacketID: 7, Subs: []Subscription{{Filter: "t/+"}}}
			if err := sp.encode(conn); err != nil {
				t.Fatal(err)
			}
			if typ, body := readRaw(t, conn); typ != SUBACK || !bytes.Equal(body, []byte{0, 7, 0}) {
				t.Fatalf("got %v %v, want SUBACK [0 7 0]", typ, body)
			}
		})
		t.Run("pingresp", func(t *testing.T) {
			conn := rawSession(t, b, "pingresp")
			if _, err := conn.Write(encodedEmpty(PINGREQ)); err != nil {
				t.Fatal(err)
			}
			if typ, _ := readRaw(t, conn); typ != PINGRESP {
				t.Fatalf("got %v, want PINGRESP", typ)
			}
		})
		t.Run("routed", func(t *testing.T) {
			conn := rawSession(t, b, "routed")
			// Subscribe the session behind the protocol's back, so no
			// SUBACK is queued before the routed publish.
			b.mu.Lock()
			b.sessions["routed"].subs["t/routed"] = 0
			b.reindex()
			b.mu.Unlock()
			pub := dialTest(t, b.Addr(), "routed-pub", nil)
			if err := pub.Publish("t/routed", []byte("first"), 0, false); err != nil {
				t.Fatal(err)
			}
			typ, body := readRaw(t, conn)
			if typ != PUBLISH {
				t.Fatalf("got %v, want PUBLISH", typ)
			}
			p, err := decodePublish(0, body)
			if err != nil || p.Topic != "t/routed" || string(p.Payload) != "first" {
				t.Fatalf("got %q %q (%v), want t/routed first", p.Topic, p.Payload, err)
			}
		})
	})
}

// TestBrokerCloseStopsEveryGoroutine: Close returns only once every
// session reader and every writer it started has exited, and once the
// clients' read loops see their connections end, the goroutine count is
// back where it was before the broker started.
func TestBrokerCloseStopsEveryGoroutine(t *testing.T) {
	before := settledGoroutines()
	b, err := NewBroker(pipeScheme)
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	sub := dialTest(t, b.Addr(), "ingest", func(Message) { got.Add(1) })
	if err := sub.Subscribe(Subscription{Filter: "davide/+/power", QoS: 1}); err != nil {
		t.Fatal(err)
	}
	for g := range 8 {
		c := dialTest(t, b.Addr(), fmt.Sprintf("gw%02d", g), nil)
		if err := c.Publish(fmt.Sprintf("davide/node%02d/power", g), []byte{byte(g)}, byte(g%2), false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return got.Load() == 8 }, "every publish delivered")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if n := brokerGoroutines(); n != 0 {
		t.Errorf("%d broker goroutines still running after Close", n)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before }, "goroutine count back at its baseline")
}
