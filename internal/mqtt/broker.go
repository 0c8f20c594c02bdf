package mqtt

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// BrokerStats counts broker activity; all fields are updated atomically.
type BrokerStats struct {
	Connections   atomic.Int64 // currently connected clients
	TotalConnects atomic.Int64
	PublishesIn   atomic.Int64
	PublishesOut  atomic.Int64
	BytesIn       atomic.Int64
	BytesOut      atomic.Int64
	Dropped       atomic.Int64 // messages dropped on slow subscribers
	// FanoutEncodedOnce counts deliveries that shared a PUBLISH encoding
	// produced for an earlier subscriber of the same message (the
	// encode-once fan-out hit rate: out of N matching subscribers, up to
	// N-1 deliveries reuse the first encoding).
	FanoutEncodedOnce atomic.Int64
	// BufReuses counts packet read-buffer requests served from an
	// already-grown pooled buffer instead of a fresh allocation.
	BufReuses atomic.Int64
}

// Broker is an MQTT 3.1.1 broker: the role mosquitto plays on the
// D.A.V.I.D.E. management node, receiving gateway telemetry and fanning it
// out to subscriber agents.
type Broker struct {
	ln       net.Listener
	mu       sync.RWMutex
	sessions map[string]*session // by client ID
	// index is what route walks: every subscription of every registered
	// session, a session's entries adjacent. reindex rebuilds it wherever
	// a filter map or the set of subscribed sessions changes.
	index  []subEntry
	closed atomic.Bool
	wg     sync.WaitGroup
	Stats  BrokerStats
	// QueueDepth bounds each session's outbound queue, read when the
	// session connects (a depth below 1 counts as 1). A full queue drops
	// routed messages (mosquitto's max_queued_messages behaviour) rather
	// than stalling the whole broker. It is a bound, not an allocation:
	// a queue's storage grows with what it holds (see outQueue).
	QueueDepth int
	// Trace, when set, observes every inbound publish once before
	// fan-out (the obs fan-out stage stamp). The broker stays
	// payload-agnostic: the hook owns any decoding. Set it before
	// clients start publishing; the topic and the payload both borrow
	// the session's read buffer and are only valid for the duration of
	// the call.
	Trace func(topic string, payload []byte)
	// bufs pools per-packet read buffers across all session readers.
	bufs bufPool
}

// NewBroker listens on addr and starts serving: over TCP for a host:port
// such as "127.0.0.1:0", in process for "pipe:" (see pipe.go).
func NewBroker(addr string) (*Broker, error) {
	ln, err := listen(addr)
	if err != nil {
		return nil, fmt.Errorf("mqtt: listen: %w", err)
	}
	b := &Broker{
		ln:         ln,
		sessions:   make(map[string]*session),
		QueueDepth: 1024,
	}
	b.bufs.reuses = &b.Stats.BufReuses
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

// Addr returns the listening address, useful with port 0 or "pipe:".
func (b *Broker) Addr() string { return b.ln.Addr().String() }

// Close stops the broker and disconnects all clients.
func (b *Broker) Close() error {
	if !b.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := b.ln.Close()
	b.mu.Lock()
	for _, s := range b.sessions {
		s.close()
	}
	b.mu.Unlock()
	b.wg.Wait()
	return err
}

func (b *Broker) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return // listener closed
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.serve(conn)
		}()
	}
}

// session is one connected client on the broker side.
type session struct {
	id        string
	conn      net.Conn
	q         outQueue        // pre-encoded packets to send
	subs      map[string]byte // filter -> granted QoS, guarded by Broker.mu
	closeOnce sync.Once
	done      chan struct{}
	keepAlive time.Duration
}

func (s *session) close() {
	s.closeOnce.Do(func() {
		close(s.done)
		_ = s.conn.Close()
	})
}

// subEntry is one subscription in the routing index (and, in route's
// scratch, one delivery target with its effective QoS).
type subEntry struct {
	s      *session
	filter string
	qos    byte
}

// reindex rebuilds the routing index from the registered sessions'
// filter maps. The caller holds b.mu for writing.
func (b *Broker) reindex() {
	index := make([]subEntry, 0, len(b.index))
	for _, s := range b.sessions {
		for f, q := range s.subs {
			index = append(index, subEntry{s, f, q})
		}
	}
	b.index = index
}

// serve runs one client connection to completion.
func (b *Broker) serve(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReaderSize(conn, readBufSize)
	hdr, pb, err := readPacket(br, &b.bufs)
	if err != nil {
		return
	}
	b.Stats.BytesIn.Add(int64(hdr.wireSize()))
	if hdr.Type != CONNECT {
		b.bufs.Put(pb)
		return
	}
	cp, err := decodeConnect(pb.b)
	b.bufs.Put(pb)
	if err != nil {
		_ = encodeConnack(conn, false, ConnRefusedProtocol)
		return
	}
	if cp.ClientID == "" {
		_ = encodeConnack(conn, false, ConnRefusedIdentifier)
		return
	}

	s := &session{
		id:   cp.ClientID,
		conn: conn,
		q:    outQueue{limit: max(1, b.QueueDepth), ready: make(chan struct{}, 1)},
		subs: make(map[string]byte),
		done: make(chan struct{}),
	}
	// The writer starts on the first packet queued on the session, from
	// route or send, both of which run on a reader goroutine b.wg counts,
	// so the Add below never races Close's Wait from zero. A publish-only
	// gateway session never gets one.
	s.q.start = func() {
		b.wg.Add(1)
		go b.writeLoop(s)
	}
	if cp.KeepAliveSec > 0 {
		s.keepAlive = time.Duration(cp.KeepAliveSec) * time.Second * 3 / 2
	}

	// A reconnecting client ID takes over the old session, index entries included.
	b.mu.Lock()
	old := b.sessions[s.id]
	b.sessions[s.id] = s
	if old != nil {
		old.close()
		if len(old.subs) > 0 {
			b.reindex()
		}
	}
	b.mu.Unlock()
	b.Stats.Connections.Add(1)
	b.Stats.TotalConnects.Add(1)

	defer func() {
		b.mu.Lock()
		if b.sessions[s.id] == s {
			delete(b.sessions, s.id)
			if len(s.subs) > 0 {
				b.reindex()
			}
		}
		b.mu.Unlock()
		b.Stats.Connections.Add(-1)
		s.close()
	}()

	if err := encodeConnack(conn, false, ConnAccepted); err != nil {
		return
	}

	// Reader loop. Packet bodies come from the broker-wide buffer pool;
	// every packet is fully handled before its buffer is recycled, which
	// is what lets decodePublish borrow the topic and the payload instead
	// of copying them.
	_ = conn.SetReadDeadline(time.Time{}) // the CONNECT deadline
	for {
		if s.keepAlive > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.keepAlive))
		}
		hdr, pb, err := readPacket(br, &b.bufs)
		if err != nil {
			return
		}
		b.Stats.BytesIn.Add(int64(hdr.wireSize()))
		ok := b.handle(s, hdr, pb.b)
		b.bufs.Put(pb)
		if !ok {
			return
		}
	}
}

// writeLoop is a session's writer: it serialises all outbound traffic for
// the client. A packet with nothing queued behind it goes straight to the
// socket; the first time a second one is already waiting the session gets
// a bufio.Writer, flushed only once the queue drains, so fan-out bursts
// coalesce into few syscalls and a session that receives one PUBACK at a
// time never pays the 16 KiB.
func (b *Broker) writeLoop(s *session) {
	defer b.wg.Done()
	var bw *bufio.Writer
	w := io.Writer(s.conn)
	for {
		select {
		case <-s.q.ready:
		case <-s.done:
			return
		}
		batched := int64(0)
		for pkt := s.q.pop(); pkt != nil; {
			next := s.q.pop()
			if next != nil && bw == nil {
				bw = bufio.NewWriterSize(s.conn, 16<<10)
				w = bw
			}
			if _, err := w.Write(pkt); err != nil {
				s.close()
				return
			}
			batched += int64(len(pkt))
			pkt = next
		}
		if bw != nil {
			if err := bw.Flush(); err != nil {
				s.close()
				return
			}
		}
		// Counted only once the batch reached the socket, so the
		// stat never includes bytes lost in an unflushed buffer.
		b.Stats.BytesOut.Add(batched)
	}
}

// handle processes one inbound packet; body is only valid for the call.
// It reports whether the session should keep reading.
func (b *Broker) handle(s *session, hdr FixedHeader, body []byte) bool {
	switch hdr.Type {
	case PUBLISH:
		p, err := decodePublish(hdr.Flags, body)
		if err != nil {
			return false
		}
		b.Stats.PublishesIn.Add(1)
		// Route before acknowledging: a QoS-1 publisher that holds its
		// PUBACK may assume every subscriber session already has the
		// message queued, which is what lets a later fence on another
		// session (Bridge.Drain) order itself behind it.
		b.route(&p)
		if p.QoS == 1 {
			if err := b.send(s, encodedPuback(p.PacketID)); err != nil {
				return false
			}
		}
	case SUBSCRIBE:
		sp, err := decodeSubscribe(body)
		if err != nil {
			return false
		}
		codes := make([]byte, len(sp.Subs))
		b.mu.Lock()
		for i, sub := range sp.Subs {
			s.subs[sub.Filter] = sub.QoS
			codes[i] = sub.QoS
		}
		b.reindex()
		b.mu.Unlock()
		if err := b.send(s, encodedSuback(sp.PacketID, codes)); err != nil {
			return false
		}
	case UNSUBSCRIBE:
		up, err := decodeUnsubscribe(body)
		if err != nil {
			return false
		}
		b.mu.Lock()
		for _, f := range up.Filters {
			delete(s.subs, f)
		}
		b.reindex()
		b.mu.Unlock()
		if err := b.send(s, encodedUnsuback(up.PacketID)); err != nil {
			return false
		}
	case PUBACK:
		// QoS-1 delivery confirmation from a subscriber; our broker
		// delivers at-most-once per connection, so nothing to retry.
	case PINGREQ:
		if err := b.send(s, encodedEmpty(PINGRESP)); err != nil {
			return false
		}
	case DISCONNECT:
		return false
	default:
		return false // protocol violation
	}
	return true
}

// route fans a publish out to every matching subscriber. p's topic and
// payload may borrow a read buffer: route keeps neither past the call,
// copying both into the encoded packet it queues. The broker keeps
// no retained store: a RETAIN publish reaches the current subscribers
// once, flag cleared, and is stored nowhere. route walks the subscription
// index, not the sessions: a publish costs the handful of subscriptions
// that exist, however many gateways are connected. The outbound packet
// is encoded at most once per effective QoS (the at-most-once delivery id
// is the constant 1, so every same-QoS subscriber can share one immutable
// byte slice) instead of once per subscriber; session writers only ever
// read the slice.
func (b *Broker) route(p *PublishPacket) {
	if b.Trace != nil {
		b.Trace(p.Topic, p.Payload)
	}
	var scratch [8]subEntry // targets stay on the stack at telemetry fan-outs
	// The read lock is held until every target has the message queued
	// (the sends below never block). An UNSUBSCRIBE on any session takes
	// the write lock, so once one subscriber has seen this message, a
	// fence on another session (Bridge.Drain) queues its reply behind it,
	// QoS 0 included.
	b.mu.RLock()
	defer b.mu.RUnlock()
	targets := b.match(scratch[:0], p.Topic)

	var enc [2][]byte // one shared encoding per effective QoS
	for _, t := range targets {
		q := min(p.QoS, t.qos)
		pkt := enc[q]
		if pkt == nil {
			out := *p
			out.Retain = false
			out.QoS = q
			if q > 0 {
				out.PacketID = 1 // per-connection at-most-once delivery id
			}
			var err error
			pkt, err = appendPublish(nil, &out)
			if err != nil {
				continue
			}
			enc[q] = pkt
		} else {
			b.Stats.FanoutEncodedOnce.Add(1)
		}
		if t.s.q.tryPush(pkt) {
			b.Stats.PublishesOut.Add(1)
		} else {
			b.Stats.Dropped.Add(1)
		}
	}
}

// match appends one entry per session subscribed to topic, at the highest
// QoS any of its matching filters was granted (a session's index entries
// are adjacent, so overlapping filters fold into one delivery). The
// caller holds b.mu.
func (b *Broker) match(dst []subEntry, topic string) []subEntry {
	for _, e := range b.index {
		if !TopicMatches(e.filter, topic) {
			continue
		}
		if n := len(dst); n > 0 && dst[n-1].s == e.s {
			dst[n-1].qos = max(dst[n-1].qos, e.qos)
		} else {
			dst = append(dst, e)
		}
	}
	return dst
}

// send enqueues a pre-encoded control packet for the session, waiting
// for room if its queue is full: a control packet is never dropped.
func (b *Broker) send(s *session, pkt []byte) error {
	return s.q.push(pkt, s.done)
}

// Kick abruptly closes the named client's session — no DISCONNECT, the
// connection just dies, as in a broker-side failure. Reports whether a
// session by that ID existed.
func (b *Broker) Kick(clientID string) bool {
	b.mu.RLock()
	s, ok := b.sessions[clientID]
	b.mu.RUnlock()
	if ok {
		s.close()
	}
	return ok
}

// The broker's acknowledgements, assembled directly (PUBACK and the empty
// packets, which the client sends too, are in packet.go).

func encodedSuback(id uint16, codes []byte) []byte {
	body := append([]byte{byte(id >> 8), byte(id)}, codes...)
	pkt, _ := appendPacket(nil, SUBACK, 0, body)
	return pkt
}

func encodedUnsuback(id uint16) []byte {
	return []byte{byte(UNSUBACK) << 4, 2, byte(id >> 8), byte(id)}
}
