package mqtt

import (
	"bufio"
	"fmt"
	"io"
	"log"
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
	retained map[string]*PublishPacket
	// retainMu makes "register a subscription + snapshot the retained
	// store" (SUBSCRIBE) and "store a retained publish + snapshot its
	// targets" (route) mutually exclusive: interleaved, a retained
	// publish reaches the new subscriber both live and as the retained
	// copy. Non-retained publishes never take it.
	retainMu sync.Mutex
	closed   atomic.Bool
	wg       sync.WaitGroup
	Stats    BrokerStats
	// QueueDepth is the per-subscriber outbound buffer; a full buffer
	// drops QoS-0 messages (matching mosquitto's max_queued_messages
	// behaviour) rather than stalling the whole broker.
	QueueDepth int
	// Trace, when set, observes every inbound publish once before
	// fan-out (the obs fan-out stage stamp). The broker stays
	// payload-agnostic: the hook owns any decoding. Set it before
	// clients start publishing; the payload is only valid for the
	// duration of the call.
	Trace func(topic string, payload []byte)
	logf  func(format string, args ...any)
	// bufs pools per-packet read buffers across all session readers.
	bufs bufPool
}

// NewBroker listens on addr (e.g. "127.0.0.1:0") and starts serving.
func NewBroker(addr string) (*Broker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mqtt: listen: %w", err)
	}
	b := &Broker{
		ln:         ln,
		sessions:   make(map[string]*session),
		retained:   make(map[string]*PublishPacket),
		QueueDepth: 1024,
		logf:       func(string, ...any) {},
	}
	b.bufs.reuses = &b.Stats.BufReuses
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

// SetLogger installs a debug logger (nil disables logging).
func (b *Broker) SetLogger(l *log.Logger) {
	if l == nil {
		b.logf = func(string, ...any) {}
		return
	}
	b.logf = l.Printf
}

// Addr returns the listening address, useful with port 0.
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
	out       chan []byte // pre-encoded packets to send
	subs      map[string]byte
	subsMu    sync.RWMutex
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

// serve runs one client connection to completion.
func (b *Broker) serve(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hdr, err := ReadFixedHeader(conn)
	if err != nil || hdr.Type != CONNECT {
		return
	}
	pb := b.bufs.Get(hdr.Length)
	if _, err := io.ReadFull(conn, pb.b); err != nil {
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
		out:  make(chan []byte, b.QueueDepth),
		subs: make(map[string]byte),
		done: make(chan struct{}),
	}
	if cp.KeepAliveSec > 0 {
		s.keepAlive = time.Duration(cp.KeepAliveSec) * time.Second * 3 / 2
	}

	// A reconnecting client ID takes over the old session.
	b.mu.Lock()
	if old, ok := b.sessions[s.id]; ok {
		old.close()
	}
	b.sessions[s.id] = s
	b.mu.Unlock()
	b.Stats.Connections.Add(1)
	b.Stats.TotalConnects.Add(1)

	defer func() {
		b.mu.Lock()
		if b.sessions[s.id] == s {
			delete(b.sessions, s.id)
		}
		b.mu.Unlock()
		b.Stats.Connections.Add(-1)
		s.close()
	}()

	if err := encodeConnack(conn, false, ConnAccepted); err != nil {
		return
	}
	b.logf("mqtt: client %q connected from %v", s.id, conn.RemoteAddr())

	// Writer goroutine: serialises all outbound traffic for this client.
	// Writes go through a bufio.Writer that is flushed only once the
	// outbound queue drains, so a burst of small packets (fan-out to a
	// fast subscriber, PUBACK trains) coalesces into few syscalls.
	go func() {
		bw := bufio.NewWriterSize(s.conn, 16<<10)
		for {
			select {
			case pkt := <-s.out:
				batched := int64(0)
				for pkt != nil {
					if _, err := bw.Write(pkt); err != nil {
						s.close()
						return
					}
					batched += int64(len(pkt))
					select {
					case pkt = <-s.out:
					default:
						pkt = nil
					}
				}
				if err := bw.Flush(); err != nil {
					s.close()
					return
				}
				// Counted only once the batch reached the socket, so the
				// stat never includes bytes lost in an unflushed buffer.
				b.Stats.BytesOut.Add(batched)
			case <-s.done:
				return
			}
		}
	}()

	// Reader loop. Packet bodies come from the broker-wide buffer pool;
	// every packet is fully handled (or copied, for retained messages)
	// before its buffer is recycled, which is what lets decodePublish
	// borrow the payload instead of copying it.
	for {
		if s.keepAlive > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.keepAlive))
		} else {
			_ = conn.SetReadDeadline(time.Time{})
		}
		hdr, err := ReadFixedHeader(conn)
		if err != nil {
			return
		}
		pb := b.bufs.Get(hdr.Length)
		body := pb.b
		if _, err := io.ReadFull(conn, body); err != nil {
			b.bufs.Put(pb)
			return
		}
		b.Stats.BytesIn.Add(int64(2 + hdr.Length))
		ok := b.handle(s, hdr, body)
		b.bufs.Put(pb)
		if !ok {
			return
		}
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
		b.route(p)
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
		b.retainMu.Lock()
		s.subsMu.Lock()
		for i, sub := range sp.Subs {
			s.subs[sub.Filter] = sub.QoS
			codes[i] = sub.QoS
		}
		s.subsMu.Unlock()
		matched, qos := b.matchRetained(sp.Subs)
		b.retainMu.Unlock()
		if err := b.send(s, encodedSuback(sp.PacketID, codes)); err != nil {
			return false
		}
		b.deliverRetained(s, matched, qos)
	case UNSUBSCRIBE:
		up, err := decodeUnsubscribe(body)
		if err != nil {
			return false
		}
		s.subsMu.Lock()
		for _, f := range up.Filters {
			delete(s.subs, f)
		}
		s.subsMu.Unlock()
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

// route fans a publish out to every matching subscriber and stores retained
// messages. The outbound packet is encoded at most once per effective QoS
// (the at-most-once delivery id is the constant 1, so every same-QoS
// subscriber can share one immutable byte slice) instead of once per
// subscriber; session writers only ever read the slice.
func (b *Broker) route(p *PublishPacket) {
	if b.Trace != nil {
		b.Trace(p.Topic, p.Payload)
	}
	if p.Retain {
		b.retainMu.Lock() // until the targets are snapshotted
		b.mu.Lock()
		if len(p.Payload) == 0 {
			delete(b.retained, p.Topic)
		} else {
			// The payload borrows from a pooled read buffer: the retained
			// store outlives the read cycle, so it keeps a deep copy.
			cp := p.Clone()
			cp.Dup = false
			b.retained[p.Topic] = cp
		}
		b.mu.Unlock()
	}
	b.mu.RLock()
	targets := make([]*session, 0, len(b.sessions))
	qos := make([]byte, 0, len(b.sessions))
	for _, s := range b.sessions {
		s.subsMu.RLock()
		best, ok := byte(0), false
		for f, q := range s.subs {
			if TopicMatches(f, p.Topic) {
				ok = true
				if q > best {
					best = q
				}
			}
		}
		s.subsMu.RUnlock()
		if ok {
			targets = append(targets, s)
			qos = append(qos, best)
		}
	}
	b.mu.RUnlock()
	if p.Retain {
		b.retainMu.Unlock()
	}

	var enc [2][]byte // one shared encoding per effective QoS
	for i, s := range targets {
		q := min(p.QoS, qos[i])
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
		select {
		case s.out <- pkt:
			b.Stats.PublishesOut.Add(1)
		default:
			b.Stats.Dropped.Add(1)
		}
	}
}

// matchRetained snapshots the retained messages matching fresh
// subscriptions, with each one's delivery QoS.
func (b *Broker) matchRetained(subs []Subscription) (matched []*PublishPacket, qos []byte) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for topic, msg := range b.retained {
		for _, sub := range subs {
			if TopicMatches(sub.Filter, topic) {
				matched = append(matched, msg)
				qos = append(qos, min(msg.QoS, sub.QoS))
				break
			}
		}
	}
	return matched, qos
}

// deliverRetained sends a matchRetained snapshot to the subscriber.
func (b *Broker) deliverRetained(s *session, matched []*PublishPacket, qos []byte) {
	for i, msg := range matched {
		out := *msg
		out.Retain = true
		out.QoS = qos[i]
		if out.QoS > 0 {
			out.PacketID = 1
		}
		pkt, err := appendPublish(nil, &out)
		if err != nil {
			continue
		}
		select {
		case s.out <- pkt:
			b.Stats.PublishesOut.Add(1)
		default:
			b.Stats.Dropped.Add(1)
		}
	}
}

// send enqueues a pre-encoded control packet for the session.
func (b *Broker) send(s *session, pkt []byte) error {
	select {
	case s.out <- pkt:
		return nil
	case <-s.done:
		return io.ErrClosedPipe
	}
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

// KickAll abruptly closes every connected session (a broker hiccup:
// the process stays up, every peer must reconnect). Returns the number
// of sessions closed.
func (b *Broker) KickAll() int {
	b.mu.RLock()
	victims := make([]*session, 0, len(b.sessions))
	for _, s := range b.sessions {
		victims = append(victims, s)
	}
	b.mu.RUnlock()
	for _, s := range victims {
		s.close()
	}
	return len(victims)
}

// RetainedCount returns the number of retained topics.
func (b *Broker) RetainedCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.retained)
}

// Pre-encoded control-packet helpers: direct byte assembly, no
// intermediate writer.

func encodedPuback(id uint16) []byte {
	return []byte{byte(PUBACK) << 4, 2, byte(id >> 8), byte(id)}
}

func encodedSuback(id uint16, codes []byte) []byte {
	body := append([]byte{byte(id >> 8), byte(id)}, codes...)
	pkt, _ := appendPacket(nil, SUBACK, 0, body)
	return pkt
}

func encodedUnsuback(id uint16) []byte {
	return []byte{byte(UNSUBACK) << 4, 2, byte(id >> 8), byte(id)}
}

func encodedEmpty(t PacketType) []byte {
	return []byte{byte(t) << 4, 0}
}

func min(a, b byte) byte {
	if a < b {
		return a
	}
	return b
}
