package mqtt

// Bridge is a broker-to-broker uplink session: it subscribes to a set of
// topic filters on a source broker (a per-rack broker in the tiered
// fabric) and republishes every matching message onto a target broker
// (the spine aggregator). The design is mosquitto's bridge connection
// scaled down to this codebase's seams:
//
//   - the source side is an ordinary subscriber session, so it rides the
//     broker's encode-once fan-out like any other consumer;
//   - the uplink side is an ordinary publisher client, so the existing
//     Link seam injects faults on the rack→spine hop exactly the way it
//     does on the gateway→rack hop (internal/chaos plugs in unchanged);
//   - a bounded queue decouples the two, with explicit backpressure
//     accounting instead of unbounded buffering.
//
// Messages flow through one forward goroutine, so the per-topic (and
// therefore per-node) publish order of the source broker is preserved on
// the uplink — the property rack-parallel determinism rests on.
//
// Failure handling: any uplink publish error — a spine Kick, a severed
// connection, or an injected chaos.ErrCrash — tears the uplink session
// down, redials it, and retries the same message, so a bridged sample is
// never dropped by a transient uplink failure (at-least-once; exact
// duplicate timestamps overwrite at the store). If the source session
// dies, the bridge redials and resubscribes; messages routed by the
// source broker while the bridge was away are gone (normal MQTT
// semantics for a lost subscriber) and show up only in the redial
// counter.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBridgeClosed is returned by operations on a closed bridge.
var ErrBridgeClosed = errors.New("mqtt: bridge closed")

// redialWait paces a bridge's reconnect attempts.
const redialWait = 10 * time.Millisecond

// BridgeOptions configures NewBridge. Source and UplinkID default from
// Name; Filters must be non-empty.
type BridgeOptions struct {
	// Name is the bridge identity: client IDs default to Name+"-src" on
	// the source broker and Name+"-up" on the target broker.
	Name string
	// Filters are the subscriptions forwarded across the uplink.
	Filters []Subscription
	// QueueDepth bounds the decoupling queue between the source reader
	// and the uplink publisher. A full queue drops the incoming message
	// and counts it (Stats.Dropped) — explicit backpressure, mirroring
	// the broker's own QoS-0 session-queue policy. Default 4096.
	QueueDepth int
	// Link, when non-nil, intercepts uplink publishes — the chaos seam
	// for rack→spine faults. The link outlives uplink redials, exactly
	// as it outlives client reconnects on the gateway hop.
	Link Link
	// OnForward, when set, observes every message after it is
	// successfully published on the uplink (the obs uplink stage
	// stamp). The topic and the payload borrow the bridge's pooled
	// carrier and are only valid for the duration of the call.
	OnForward func(topic string, payload []byte)
}

func (o BridgeOptions) withDefaults() (BridgeOptions, error) {
	if o.Name == "" {
		return o, errors.New("mqtt: bridge name required")
	}
	if len(o.Filters) == 0 {
		return o, errors.New("mqtt: bridge needs at least one filter")
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4096
	}
	return o, nil
}

// BridgeStats is a snapshot of a bridge's traffic accounting.
type BridgeStats struct {
	Forwarded      int64 // messages handed to the uplink publish path
	ForwardedBytes int64 // payload bytes of those messages
	Dropped        int64 // backpressure: enqueue attempts against a full queue
	Retries        int64 // uplink publishes retried after an error
	UplinkRedials  int64 // uplink sessions redialed after a failure
	SourceRedials  int64 // source sessions redialed after a failure
	HighWater      int64 // max queue occupancy observed
}

// queuedMsg is one buffered message: its topic bytes, then its payload,
// in one pooled buffer owned by the forward goroutine until it recycles
// it. The received topic is borrowed like the payload, so it is copied
// into the carrier too.
type queuedMsg struct {
	buf      *[]byte
	topicLen int
	qos      byte
}

// topic and payload view the carrier; both are valid until it recycles.
func (m queuedMsg) topic() string   { return borrowString((*m.buf)[:m.topicLen]) }
func (m queuedMsg) payload() []byte { return (*m.buf)[m.topicLen:] }

// Bridge forwards telemetry from a source broker to a target broker.
// Safe for concurrent inspection; Close is idempotent.
type Bridge struct {
	opts       BridgeOptions
	sourceAddr string
	targetAddr string

	mu  sync.Mutex // guards src/up session swaps
	src *Client
	up  *Client

	q    chan queuedMsg
	bufs sync.Pool // *[]byte topic-and-payload carriers
	quit chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	accepted  atomic.Int64 // messages enqueued
	completed atomic.Int64 // messages fully forwarded (dequeued + published)

	forwarded      atomic.Int64
	forwardedBytes atomic.Int64
	dropped        atomic.Int64
	retries        atomic.Int64
	upRedials      atomic.Int64
	srcRedials     atomic.Int64
	highWater      atomic.Int64
}

// NewBridge dials both sides and starts forwarding. The uplink comes up
// first so the subscription never sees a message it has nowhere to send.
func NewBridge(sourceAddr, targetAddr string, opts BridgeOptions) (*Bridge, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	b := &Bridge{
		opts:       opts,
		sourceAddr: sourceAddr,
		targetAddr: targetAddr,
		q:          make(chan queuedMsg, opts.QueueDepth),
		quit:       make(chan struct{}),
	}
	up, err := b.dialUplink()
	if err != nil {
		return nil, err
	}
	b.up = up
	src, err := b.dialSource()
	if err != nil {
		_ = up.Close()
		return nil, err
	}
	b.src = src
	b.wg.Add(2)
	go b.forwardLoop()
	go b.watchSource()
	return b, nil
}

func (b *Bridge) dialUplink() (*Client, error) {
	return Dial(b.targetAddr, ClientOptions{
		ClientID:     b.opts.Name + "-up",
		CleanSession: true,
		Link:         b.opts.Link,
	})
}

func (b *Bridge) dialSource() (*Client, error) {
	c, err := Dial(b.sourceAddr, ClientOptions{
		ClientID:     b.opts.Name + "-src",
		CleanSession: true,
		OnMessage:    b.enqueue,
	})
	if err != nil {
		return nil, err
	}
	if err := c.Subscribe(b.opts.Filters...); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// drainFence is a filter no bridge subscribes to; Drain unsubscribes from
// it for the round trip through the source session, then the uplink's.
const drainFence = "$bridge/drain-fence"

// enqueue runs on the source client's reader goroutine: copy the borrowed
// topic and payload into a pooled buffer and hand it to the forward
// goroutine, or drop-and-count when the queue is full.
func (b *Bridge) enqueue(m Message) {
	bp, _ := b.bufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = append(append((*bp)[:0], m.Topic...), m.Payload...)
	select {
	case b.q <- queuedMsg{buf: bp, topicLen: len(m.Topic), qos: m.QoS}:
		b.accepted.Add(1)
		if depth := int64(len(b.q)); depth > b.highWater.Load() {
			b.highWater.Store(depth) // racy max is fine for a gauge
		}
	default:
		b.dropped.Add(1)
		b.bufs.Put(bp)
	}
}

func (b *Bridge) forwardLoop() {
	defer b.wg.Done()
	for {
		select {
		case m := <-b.q:
			b.forward(m)
			b.bufs.Put(m.buf)
			b.completed.Add(1)
		case <-b.quit:
			return
		}
	}
}

// forward publishes one message on the uplink, redialing and retrying
// until it succeeds or the bridge closes.
func (b *Bridge) forward(m queuedMsg) {
	for attempt := 0; ; attempt++ {
		b.mu.Lock()
		up := b.up
		b.mu.Unlock()
		topic, payload := m.topic(), m.payload()
		err := up.Publish(topic, payload, m.qos, false)
		if err == nil {
			b.forwarded.Add(1)
			b.forwardedBytes.Add(int64(len(payload)))
			if b.opts.OnForward != nil {
				b.opts.OnForward(topic, payload)
			}
			return
		}
		if b.isClosed() {
			return
		}
		b.retries.Add(1)
		if !b.redialUplink(up) {
			return
		}
	}
}

// redialUplink replaces a failed uplink session. Returns false when the
// bridge closed before a new session came up. The old session is torn
// down with Abort, not Close: Abort waits for the broker to drain the
// aborted stream, so QoS-0 publishes already reported written are read
// before the replacement session (same client ID) triggers the broker's
// takeover — Close here would discard them.
func (b *Bridge) redialUplink(old *Client) bool {
	_ = old.Abort()
	for {
		if b.isClosed() {
			return false
		}
		c, err := b.dialUplink()
		if err == nil {
			b.mu.Lock()
			b.up = c
			b.mu.Unlock()
			b.upRedials.Add(1)
			return true
		}
		select {
		case <-b.quit:
			return false
		case <-time.After(redialWait):
		}
	}
}

// watchSource redials and resubscribes the source session if it dies.
func (b *Bridge) watchSource() {
	defer b.wg.Done()
	for {
		b.mu.Lock()
		src := b.src
		b.mu.Unlock()
		select {
		case <-b.quit:
			return
		case <-src.Done():
			if b.isClosed() {
				return
			}
			for {
				c, err := b.dialSource()
				if err == nil {
					b.mu.Lock()
					b.src = c
					b.mu.Unlock()
					b.srcRedials.Add(1)
					break
				}
				select {
				case <-b.quit:
					return
				case <-time.After(redialWait):
				}
			}
		}
	}
}

func (b *Bridge) isClosed() bool {
	select {
	case <-b.quit:
		return true
	default:
		return false
	}
}

// Drain blocks until every message the source broker has routed to the
// bridge so far has been forwarded, flushes the uplink Link (releasing
// any held/delayed messages), and waits until the target broker has read
// them all. Call it after the upstream publishers have finished, as
// Plane.Stream does; a racing publisher can re-fill the queue after Drain
// returns.
func (b *Bridge) Drain(ctx context.Context) error {
	// Fence the source session first: the UNSUBACK travels the broker's
	// per-session queue behind every publish already routed to the bridge,
	// so when it is back they have all been accepted (or dropped and
	// counted). A dead source session has nothing in flight, and
	// watchSource replaces it: its error is not Drain's.
	b.mu.Lock()
	src := b.src
	b.mu.Unlock()
	_ = src.Unsubscribe(drainFence)
	for b.completed.Load() < b.accepted.Load() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-b.quit:
			return ErrBridgeClosed
		case <-time.After(500 * time.Microsecond):
		}
	}
	b.mu.Lock()
	up := b.up
	b.mu.Unlock()
	if err := up.Flush(); err != nil {
		return err
	}
	// Fence the uplink session the same way: a written publish may still
	// sit unread in the target broker's connection, and its UNSUBACK comes
	// back only once the broker has read (and counted) every one before it.
	// A dead uplink has nothing left in flight for the target to read.
	_ = up.Unsubscribe(drainFence)
	return nil
}

// Stats snapshots the bridge's counters.
func (b *Bridge) Stats() BridgeStats {
	return BridgeStats{
		Forwarded:      b.forwarded.Load(),
		ForwardedBytes: b.forwardedBytes.Load(),
		Dropped:        b.dropped.Load(),
		Retries:        b.retries.Load(),
		UplinkRedials:  b.upRedials.Load(),
		SourceRedials:  b.srcRedials.Load(),
		HighWater:      b.highWater.Load(),
	}
}

// Add merges another snapshot into this one (plane-level aggregation).
func (s *BridgeStats) Add(o BridgeStats) {
	s.Forwarded += o.Forwarded
	s.ForwardedBytes += o.ForwardedBytes
	s.Dropped += o.Dropped
	s.Retries += o.Retries
	s.UplinkRedials += o.UplinkRedials
	s.SourceRedials += o.SourceRedials
	if o.HighWater > s.HighWater {
		s.HighWater = o.HighWater
	}
}

// Close tears the bridge down: source first (no new input), then the
// forward goroutine, then the uplink. Queued messages are discarded —
// Drain first for a clean handover.
func (b *Bridge) Close() error {
	var err error
	b.once.Do(func() {
		close(b.quit)
		b.mu.Lock()
		src, up := b.src, b.up
		b.mu.Unlock()
		if e := src.Close(); e != nil {
			err = e
		}
		b.wg.Wait()
		if e := up.Close(); e != nil && err == nil {
			err = e
		}
	})
	return err
}
