package mqtt

import (
	"io"
	"sync"
)

// outQueue is a session's outbound queue: pre-encoded packets waiting for
// the session's writer, in FIFO order, at most limit of them. Like
// mosquitto's max_queued_messages, the bound caps a list that holds only
// what is queued: the ring grows on demand, doubling up to limit, so a
// session that never queues a packet (a QoS-0 gateway that never
// subscribes) holds no storage, and storage never exceeds twice the
// queue's high-water mark. Emptying the queue keeps the ring for the next
// burst.
//
// It behaves as a Go channel of limit slots: tryPush never blocks and
// fails on a full queue; push blocks until there is room or done closes,
// and a packet waiting in push takes the next slot pop frees, ahead of any
// tryPush made after it began waiting, as a blocked channel sender does.
type outQueue struct {
	mu      sync.Mutex
	ring    [][]byte
	head, n int
	limit   int
	waiting []queueWaiter // push callers held for room, in arrival order
	// ready (capacity 1) wakes the writer after a push; a nil ready, as
	// in a test that drains with pop itself, wakes nobody.
	ready chan struct{}
	// start, when set, starts the writer: put calls it, under mu, with
	// the first packet ever queued, so a queue that never holds a packet
	// never has a writer. It must not block; the writer's first wait
	// takes that packet's wake-up.
	start func()
}

// queueWaiter is one push held for room; queued closes once its packet
// is in the ring.
type queueWaiter struct {
	pkt    []byte
	queued chan struct{}
}

// tryPush queues pkt unless the queue is full, and reports whether it did.
func (q *outQueue) tryPush(pkt []byte) bool {
	q.mu.Lock()
	ok := q.n < q.limit // a waiting push implies a full queue
	if ok {
		q.put(pkt)
	}
	q.mu.Unlock()
	if ok {
		q.wake()
	}
	return ok
}

// push queues pkt, waiting for room behind any earlier waiting push. It
// fails only once done is closed.
func (q *outQueue) push(pkt []byte, done <-chan struct{}) error {
	q.mu.Lock()
	if q.n < q.limit {
		q.put(pkt)
		q.mu.Unlock()
		q.wake()
		return nil
	}
	queued := make(chan struct{})
	q.waiting = append(q.waiting, queueWaiter{pkt, queued})
	q.mu.Unlock()
	select {
	case <-queued: // pop moved it in; the writer is draining and will reach it
		return nil
	case <-done:
		return io.ErrClosedPipe
	}
}

// pop takes the oldest packet, or nil when the queue is empty. The slot it
// frees goes straight to the oldest waiting push.
func (q *outQueue) pop() []byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return nil
	}
	pkt := q.ring[q.head]
	q.ring[q.head] = nil
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	if len(q.waiting) > 0 {
		w := q.waiting[0]
		q.waiting = q.waiting[1:]
		q.put(w.pkt)
		close(w.queued)
	}
	return pkt
}

// put appends pkt, growing the ring if it is full. The caller holds q.mu
// and has checked q.n < q.limit.
func (q *outQueue) put(pkt []byte) {
	if q.n == len(q.ring) {
		ring := make([][]byte, min(max(1, 2*len(q.ring)), q.limit))
		copy(ring[copy(ring, q.ring[q.head:]):], q.ring[:q.head]) // full: head to end, then the front
		q.ring, q.head = ring, 0
	}
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = pkt
	q.n++
	if q.start != nil {
		q.start()
		q.start = nil
	}
}

func (q *outQueue) wake() {
	select {
	case q.ready <- struct{}{}:
	default: // a wake-up is already pending
	}
}
