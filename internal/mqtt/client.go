package mqtt

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Message is a received application message handed to the client callback.
//
// Ownership: Topic and Payload both borrow from a pooled read buffer and
// are only valid for the duration of the handler call; the buffer is
// overwritten by the next packet. A handler that hands the message to
// another goroutine or retains it must copy both (Clone), or copy out the
// parts it keeps.
type Message struct {
	Topic    string
	Payload  []byte
	QoS      byte
	Retained bool
}

// Clone returns a message that owns its topic and payload.
func (m Message) Clone() Message {
	m.Topic = strings.Clone(m.Topic)
	m.Payload = append([]byte(nil), m.Payload...)
	return m
}

// MessageHandler receives inbound messages. It runs on the client's reader
// goroutine: handlers must be quick or copy work elsewhere.
type MessageHandler func(Message)

// ClientOptions configures Dial.
type ClientOptions struct {
	ClientID     string
	KeepAlive    time.Duration // 0 disables client pings
	CleanSession bool
	ConnectWait  time.Duration // CONNACK timeout (default 5 s)
	OnMessage    MessageHandler
	// Link, when non-nil, intercepts every outbound application message
	// (see Link); the fault-injection seam. A Link outlives the client:
	// reconnect by dialing a new client with the same Link.
	Link Link
}

// ErrAborted is the close reason reported by Err after Abort.
var ErrAborted = errors.New("mqtt: connection aborted")

// ErrAbortDrainTimeout is returned by Abort when the broker did not
// drain and close the aborted stream within the wait bound — a
// reconnect under the same client ID may then discard in-flight data.
var ErrAbortDrainTimeout = errors.New("mqtt: abort: broker drain wait timed out")

// ClientStats counts client-side traffic; all fields are updated
// atomically, so a Client may be shared and inspected concurrently.
type ClientStats struct {
	Publishes    atomic.Int64 // PUBLISH packets sent
	PublishBytes atomic.Int64 // payload bytes sent in PUBLISH packets
	Received     atomic.Int64 // PUBLISH packets received
	// BufReuses counts pooled packet-buffer reuses: inbound bodies served
	// from the read pool plus outbound packets assembled in the retained
	// encode buffer without growing it.
	BufReuses atomic.Int64
}

// Client is an MQTT 3.1.1 client: the role the energy gateways (publishers)
// and telemetry agents (subscribers) play.
type Client struct {
	opts     ClientOptions
	conn     net.Conn
	writeMu  sync.Mutex
	wbuf     []byte // outbound packet assembly buffer, guarded by writeMu
	bufs     bufPool
	nextID   atomic.Uint32
	closed   atomic.Bool
	done     chan struct{}
	readDone chan struct{} // closed when readLoop exits (Abort drain wait)
	closeErr atomic.Value  // error
	Stats    ClientStats

	ackMu   sync.Mutex
	pending map[uint16]chan struct{} // QoS-1 publish awaiting PUBACK
	subMu   sync.Mutex
	subWait map[uint16]chan []byte // SUBACK/UNSUBACK waiters
}

// Dial connects to a broker, over TCP or in process as its address says
// (see pipe.go), and completes the CONNECT handshake.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	if opts.ClientID == "" {
		return nil, errors.New("mqtt: client ID required")
	}
	if opts.ConnectWait <= 0 {
		opts.ConnectWait = 5 * time.Second
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("mqtt: dial: %w", err)
	}
	c := &Client{
		opts:     opts,
		conn:     conn,
		done:     make(chan struct{}),
		readDone: make(chan struct{}),
		pending:  make(map[uint16]chan struct{}),
		subWait:  make(map[uint16]chan []byte),
	}
	c.bufs.reuses = &c.Stats.BufReuses
	cp := &ConnectPacket{
		ClientID:     opts.ClientID,
		CleanSession: opts.CleanSession,
		KeepAliveSec: uint16(opts.KeepAlive / time.Second),
	}
	_ = conn.SetDeadline(time.Now().Add(opts.ConnectWait))
	if err := cp.encode(conn); err != nil {
		_ = conn.Close()
		return nil, err
	}
	hdr, err := ReadFixedHeader(conn)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	// Length checked before the body is read: the peer sizes no allocation.
	if hdr.Type != CONNACK || hdr.Length != 2 {
		_ = conn.Close()
		return nil, fmt.Errorf("%w: expected CONNACK, got %v of %d bytes", ErrMalformed, hdr.Type, hdr.Length)
	}
	var body [2]byte
	if _, err := io.ReadFull(conn, body[:]); err != nil {
		_ = conn.Close()
		return nil, err
	}
	_, code, err := decodeConnack(body[:])
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if code != ConnAccepted {
		_ = conn.Close()
		return nil, fmt.Errorf("%w: code %d", ErrConnRefused, code)
	}
	_ = conn.SetDeadline(time.Time{})

	go c.readLoop()
	if opts.KeepAlive > 0 {
		go c.pingLoop()
	}
	return c, nil
}

// Close disconnects cleanly.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.writeMu.Lock()
	_, _ = c.conn.Write(encodedEmpty(DISCONNECT))
	c.writeMu.Unlock()
	close(c.done)
	return c.conn.Close()
}

// Abort tears the session down without the DISCONNECT handshake, the
// way a crashing gateway process does: the write side closes
// immediately (no new publishes; the end of stream, a TCP FIN or the
// in-process conn's EOF, arrives *behind* data the conn already
// accepted, so a crash loses nothing that Publish reported written),
// then Abort waits — bounded — for the broker to drain the
// stream, tear the session down and close its side. Waiting matters
// for crash/reconnect cycles: redialing the same client ID while the
// old session still has unread data would make the broker's takeover
// discard it — so a timed-out drain returns ErrAbortDrainTimeout
// rather than failing that invariant silently. Err reports ErrAborted.
func (c *Client) Abort() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.closeErr.Store(ErrAborted)
	var drainErr error
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := c.conn.(closeWriter); ok {
		if cw.CloseWrite() == nil {
			// readLoop exits when the broker, having consumed our FIN
			// (and everything before it), closes its side.
			select {
			case <-c.readDone:
			case <-time.After(5 * time.Second):
				drainErr = ErrAbortDrainTimeout
			}
		}
	}
	close(c.done)
	_ = c.conn.Close()
	return drainErr
}

// Done is closed when the client's connection terminates for any reason.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err returns the error that terminated the connection, if any.
func (c *Client) Err() error {
	if v := c.closeErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

func (c *Client) fail(err error) {
	if c.closed.CompareAndSwap(false, true) {
		c.closeErr.Store(err)
		close(c.done)
		_ = c.conn.Close()
	}
}

// Publish sends a message. QoS 0 returns after the write; QoS 1 blocks
// until PUBACK or timeout. When the client carries a Link, the message
// is routed through it first (the fault-injection seam).
func (c *Client) Publish(topic string, payload []byte, qos byte, retain bool) error {
	if c.closed.Load() {
		return io.ErrClosedPipe
	}
	if qos > 1 {
		return fmt.Errorf("%w: QoS %d unsupported", ErrMalformed, qos)
	}
	m := Message{Topic: topic, Payload: payload, QoS: qos, Retained: retain}
	if c.opts.Link != nil {
		return c.opts.Link.Send(m, c.deliver)
	}
	return c.deliver(m)
}

// Flush drains any messages the client's Link is still holding back
// (delay/reorder faults). A no-op without a Link.
func (c *Client) Flush() error {
	if c.opts.Link == nil {
		return nil
	}
	return c.opts.Link.Flush(c.deliver)
}

// deliver performs one real wire publish: the DeliverFunc handed to the
// Link, and the whole publish path when no Link is installed.
func (c *Client) deliver(m Message) error {
	if c.closed.Load() {
		return io.ErrClosedPipe
	}
	p := &PublishPacket{Topic: m.Topic, Payload: m.Payload, QoS: m.QoS, Retain: m.Retained}
	qos := m.QoS
	var ack chan struct{}
	if qos == 1 {
		p.PacketID = c.allocID()
		ack = make(chan struct{})
		c.ackMu.Lock()
		c.pending[p.PacketID] = ack
		c.ackMu.Unlock()
		defer func() {
			c.ackMu.Lock()
			delete(c.pending, p.PacketID)
			c.ackMu.Unlock()
		}()
	}
	// Assemble the packet in the client's retained encode buffer (one
	// copy of the payload, one syscall, no steady-state allocation).
	c.writeMu.Lock()
	prevCap := cap(c.wbuf)
	buf, err := appendPublish(c.wbuf[:0], p)
	if err == nil {
		c.wbuf = buf
		if prevCap > 0 && cap(buf) == prevCap {
			c.Stats.BufReuses.Add(1)
		}
		_, err = c.conn.Write(buf)
	}
	c.writeMu.Unlock()
	if err != nil {
		return err
	}
	c.Stats.Publishes.Add(1)
	c.Stats.PublishBytes.Add(int64(len(m.Payload)))
	if qos == 0 {
		return nil
	}
	select {
	case <-ack:
		return nil
	case <-c.done:
		return io.ErrClosedPipe
	case <-time.After(c.opts.ConnectWait):
		return errors.New("mqtt: PUBACK timeout")
	}
}

// Subscribe registers topic filters and waits for the SUBACK.
func (c *Client) Subscribe(subs ...Subscription) error {
	if len(subs) == 0 {
		return errors.New("mqtt: no subscriptions")
	}
	if c.closed.Load() {
		return io.ErrClosedPipe
	}
	id := c.allocID()
	wait := make(chan []byte, 1)
	c.subMu.Lock()
	c.subWait[id] = wait
	c.subMu.Unlock()
	defer func() {
		c.subMu.Lock()
		delete(c.subWait, id)
		c.subMu.Unlock()
	}()
	p := &SubscribePacket{PacketID: id, Subs: subs}
	c.writeMu.Lock()
	err := p.encode(c.conn)
	c.writeMu.Unlock()
	if err != nil {
		return err
	}
	select {
	case codes := <-wait:
		if len(codes) != len(subs) {
			return fmt.Errorf("%w: SUBACK size mismatch", ErrMalformed)
		}
		for i, code := range codes {
			if code == SubackFailure {
				return fmt.Errorf("mqtt: subscription %q rejected", subs[i].Filter)
			}
		}
		return nil
	case <-c.done:
		return io.ErrClosedPipe
	case <-time.After(c.opts.ConnectWait):
		return errors.New("mqtt: SUBACK timeout")
	}
}

// Unsubscribe removes topic filters and waits for the UNSUBACK.
func (c *Client) Unsubscribe(filters ...string) error {
	if len(filters) == 0 {
		return errors.New("mqtt: no filters")
	}
	if c.closed.Load() {
		return io.ErrClosedPipe
	}
	id := c.allocID()
	wait := make(chan []byte, 1)
	c.subMu.Lock()
	c.subWait[id] = wait
	c.subMu.Unlock()
	defer func() {
		c.subMu.Lock()
		delete(c.subWait, id)
		c.subMu.Unlock()
	}()
	p := &UnsubscribePacket{PacketID: id, Filters: filters}
	c.writeMu.Lock()
	err := p.encode(c.conn)
	c.writeMu.Unlock()
	if err != nil {
		return err
	}
	select {
	case <-wait:
		return nil
	case <-c.done:
		return io.ErrClosedPipe
	case <-time.After(c.opts.ConnectWait):
		return errors.New("mqtt: UNSUBACK timeout")
	}
}

// allocID returns a non-zero 16-bit packet identifier.
func (c *Client) allocID() uint16 {
	for {
		id := uint16(c.nextID.Add(1))
		if id != 0 {
			return id
		}
	}
}

func (c *Client) readLoop() {
	defer close(c.readDone)
	br := bufio.NewReaderSize(c.conn, readBufSize)
	for {
		// Bodies come from the client's buffer pool; the packet (and a
		// PUBLISH topic and payload handed to OnMessage) borrows from it
		// until the switch completes, then the buffer recycles.
		hdr, pb, err := readPacket(br, &c.bufs)
		if err != nil {
			c.fail(err)
			return
		}
		ok := c.dispatch(hdr, pb.b)
		c.bufs.Put(pb)
		if !ok {
			return
		}
	}
}

// dispatch handles one inbound packet; body is only valid for the call.
// It reports whether the reader should continue.
func (c *Client) dispatch(hdr FixedHeader, body []byte) bool {
	switch hdr.Type {
	case PUBLISH:
		p, err := decodePublish(hdr.Flags, body)
		if err != nil {
			c.fail(err)
			return false
		}
		if p.QoS == 1 {
			c.writeMu.Lock()
			_, err := c.conn.Write(encodedPuback(p.PacketID))
			c.writeMu.Unlock()
			if err != nil {
				c.fail(err)
				return false
			}
		}
		c.Stats.Received.Add(1)
		if c.opts.OnMessage != nil {
			c.opts.OnMessage(Message{Topic: p.Topic, Payload: p.Payload, QoS: p.QoS, Retained: p.Retain})
		}
	case PUBACK:
		id, err := decodePacketID(body)
		if err != nil {
			c.fail(err)
			return false
		}
		c.ackMu.Lock()
		if ch, ok := c.pending[id]; ok {
			close(ch)
			delete(c.pending, id)
		}
		c.ackMu.Unlock()
	case SUBACK:
		id, codes, err := decodeSuback(body)
		if err != nil {
			c.fail(err)
			return false
		}
		c.subMu.Lock()
		if ch, ok := c.subWait[id]; ok {
			ch <- codes
		}
		c.subMu.Unlock()
	case UNSUBACK:
		id, err := decodePacketID(body)
		if err != nil {
			c.fail(err)
			return false
		}
		c.subMu.Lock()
		if ch, ok := c.subWait[id]; ok {
			ch <- nil
		}
		c.subMu.Unlock()
	case PINGRESP:
		// keepalive satisfied
	default:
		c.fail(fmt.Errorf("%w: unexpected %v", ErrMalformed, hdr.Type))
		return false
	}
	return true
}

func (c *Client) pingLoop() {
	t := time.NewTicker(c.opts.KeepAlive)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.writeMu.Lock()
			_, err := c.conn.Write(encodedEmpty(PINGREQ))
			c.writeMu.Unlock()
			if err != nil {
				c.fail(err)
				return
			}
		case <-c.done:
			return
		}
	}
}
