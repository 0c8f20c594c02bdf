package mqtt

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// brokerModel is a sequential broker: sessions, filter maps and one FIFO
// of expected deliveries per session. It shares no code with Broker; its
// matcher handles the exact and + filters the differential draws.
type brokerModel struct {
	subs  []map[string]byte // per session: filter -> granted QoS
	queue [][]string        // per session: "payload/qos" in delivery order
}

func modelMatches(filter, topic string) bool {
	f, n := strings.Split(filter, "/"), strings.Split(topic, "/")
	if len(f) != len(n) {
		return false
	}
	for i := range f {
		if f[i] != "+" && f[i] != n[i] {
			return false
		}
	}
	return true
}

// publish queues one copy for every session with a matching filter, at
// the lower of the publish QoS and the highest matching grant.
func (m *brokerModel) publish(topic, payload string, qos byte) {
	for s, subs := range m.subs {
		granted, ok := byte(0), false
		for f, q := range subs {
			if modelMatches(f, topic) {
				granted, ok = max(granted, q), true
			}
		}
		if ok {
			m.queue[s] = append(m.queue[s], fmt.Sprintf("%s/%d", payload, min(qos, granted)))
		}
	}
}

// TestBrokerMatchesSequentialModel replays seeded sequences of
// subscribe, unsubscribe and QoS 0/1 publishes, issued one at a time
// from several sessions, against both the real Broker and brokerModel.
// Every session's delivered sequence must equal the model's. A QoS-0
// publish is followed by a QoS-1 fence from the same session, whose
// PUBACK means the broker has routed everything that session sent, so
// the next operation on any session sees it routed.
//
// A second pass adds unfenced QoS-0 bursts at a QueueDepth of 4, fenced
// only at their end, so session queues overflow and drop. There every
// session's delivered sequence must be an in-order subsequence of the
// model's, and deliveries plus Stats.Dropped must equal the model's
// deliveries: a drop may only remove a message, never reorder, repeat
// or invent one.
func TestBrokerMatchesSequentialModel(t *testing.T) {
	forEachTransport(t, func(t *testing.T, listen string) {
		testBrokerMatchesSequentialModel(t, listen, false)
		testBrokerMatchesSequentialModel(t, listen, true)
	})
}

func testBrokerMatchesSequentialModel(t *testing.T, listen string, bursts bool) {
	const sessions, ops = 4, 200
	topics := []string{"m/a/x", "m/a/y", "m/b/x", "m/b/y"}
	filters := []string{"m/a/x", "m/b/y", "m/+/x", "m/a/+", "m/+/+"}
	for seed := int64(1); seed <= 6; seed++ {
		b := newTestBrokerOn(t, listen)
		if bursts {
			b.QueueDepth = 4
		}
		model := &brokerModel{subs: make([]map[string]byte, sessions), queue: make([][]string, sessions)}
		var mu sync.Mutex
		got := make([][]string, sessions)
		clients := make([]*Client, sessions)
		for s := range clients {
			model.subs[s] = map[string]byte{}
			clients[s] = dialTest(t, b.Addr(), fmt.Sprintf("s%d-%d", seed, s), func(m Message) {
				mu.Lock()
				got[s] = append(got[s], fmt.Sprintf("%s/%d", m.Payload, m.QoS))
				mu.Unlock()
			})
		}
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < ops; op++ {
			s := rng.Intn(sessions)
			c := clients[s]
			var err error
			switch r := rng.Intn(10); {
			case r < 2:
				f, q := filters[rng.Intn(len(filters))], byte(rng.Intn(2))
				model.subs[s][f] = q
				err = c.Subscribe(Subscription{Filter: f, QoS: q})
			case r < 3:
				f := filters[rng.Intn(len(filters))]
				delete(model.subs[s], f)
				err = c.Unsubscribe(f)
			case r < 5 && bursts:
				for i, n := 0, 4+rng.Intn(29); i < n && err == nil; i++ {
					topic, payload := topics[rng.Intn(len(topics))], fmt.Sprintf("p%d.%d", op, i)
					model.publish(topic, payload, 0)
					err = c.Publish(topic, []byte(payload), 0, false)
				}
				if err == nil {
					err = c.Publish("fence/model", nil, 1, false)
				}
			default:
				topic, qos := topics[rng.Intn(len(topics))], byte(rng.Intn(2))
				payload := fmt.Sprintf("p%d", op)
				model.publish(topic, payload, qos)
				if err = c.Publish(topic, []byte(payload), qos, false); err == nil && qos == 0 {
					err = c.Publish("fence/model", nil, 1, false)
				}
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		// Fence every session: the UNSUBACK trails every copy queued before it.
		for _, c := range clients {
			if err := c.Unsubscribe("fence/never-subscribed"); err != nil {
				t.Fatal(err)
			}
		}
		dropped := b.Stats.Dropped.Load()
		mu.Lock()
		if !bursts {
			if dropped != 0 {
				t.Fatalf("seed %d: broker dropped %d messages; the fenced model assumes none", seed, dropped)
			}
			for s := range clients {
				if g, w := strings.Join(got[s], " "), strings.Join(model.queue[s], " "); g != w {
					t.Errorf("seed %d session %d:\n got  %s\n want %s", seed, s, g, w)
				}
			}
		} else {
			delivered, want := int64(0), int64(0)
			for s := range clients {
				if at := subsequenceBreak(got[s], model.queue[s]); at >= 0 {
					t.Errorf("bursts seed %d session %d: delivery %d (%s) breaks the model's order:\n got  %s\n want %s",
						seed, s, at, got[s][at], strings.Join(got[s], " "), strings.Join(model.queue[s], " "))
				}
				delivered += int64(len(got[s]))
				want += int64(len(model.queue[s]))
			}
			if delivered+dropped != want {
				t.Errorf("bursts seed %d: %d delivered + %d dropped, want the model's %d", seed, delivered, dropped, want)
			}
			t.Logf("bursts seed %d: %d of %d deliveries dropped", seed, dropped, want)
		}
		mu.Unlock()
	}
}

// subsequenceBreak returns the index of the first element of got that
// leaves it no in-order subsequence of want, or -1 if it is one.
func subsequenceBreak(got, want []string) int {
	j := 0
	for i, g := range got {
		for j < len(want) && want[j] != g {
			j++
		}
		if j == len(want) {
			return i
		}
		j++
	}
	return -1
}
