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
func TestBrokerMatchesSequentialModel(t *testing.T) {
	forEachTransport(t, testBrokerMatchesSequentialModel)
}

func testBrokerMatchesSequentialModel(t *testing.T, listen string) {
	const sessions, ops = 4, 200
	topics := []string{"m/a/x", "m/a/y", "m/b/x", "m/b/y"}
	filters := []string{"m/a/x", "m/b/y", "m/+/x", "m/a/+", "m/+/+"}
	for seed := int64(1); seed <= 6; seed++ {
		b := newTestBrokerOn(t, listen)
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
		if d := b.Stats.Dropped.Load(); d != 0 {
			t.Fatalf("seed %d: broker dropped %d messages; the model assumes none", seed, d)
		}
		mu.Lock()
		for s := range clients {
			if g, w := strings.Join(got[s], " "), strings.Join(model.queue[s], " "); g != w {
				t.Errorf("seed %d session %d:\n got  %s\n want %s", seed, s, g, w)
			}
		}
		mu.Unlock()
	}
}
