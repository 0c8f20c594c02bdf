// Package telemetry implements the consumer side of the D.A.V.I.D.E.
// monitoring plane (§III-A1 of the paper): agents subscribe to the
// gateways' MQTT topics and land the raw power streams in the store that
// accounting, profiling and the scheduler read. The paper's requirement
// list — "measured values need to be available in real-time to multiple
// agents with a low-latency and a synchronized timestamp" — maps to the
// Aggregator: many can attach to one broker.
//
// The Aggregator is an ingest shim: it decodes batches, accounts for
// out-of-order and duplicate redelivery, appends to a tsdb.DB (the
// ExaMon-style back end of §III-A) and wakes delivery waiters. Every
// question about stored power is answered by the store; NodeEnergy and
// MeanPower forward to it.
package telemetry

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"davide/internal/gateway"
	"davide/internal/mqtt"
	"davide/internal/obs"
	"davide/internal/tsdb"
	"davide/internal/wire"
)

// nodeMeta tracks per-node ingest accounting.
type nodeMeta struct {
	ingested  int // samples ingested, ever (delivery counting)
	batches   int
	reordered int     // batches that arrived out of order or overlapping
	lastT     float64 // newest sample timestamp ingested
}

// aggShard is one lock stripe of the aggregator's per-node state. All
// state for a given node lives on exactly one stripe, so concurrent
// ingest pools (one per rack in the tiered fabric) only contend when
// they land on the same stripe — never on one global mutex.
type aggShard struct {
	mu      sync.RWMutex
	meta    map[int]*nodeMeta
	waiters waitQueue // WaitSamples, keyed by node
}

// Aggregator subscribes to the gateways' power topics and writes every
// batch through to a tsdb.DB; any other topic counts as unroutable
// (Dropped). It is safe for concurrent use (the MQTT reader goroutine
// feeds it while experiment code queries the store).
//
// Per-node state is striped across power-of-two shards sized like the
// store's (tsdb.DB.Shards), so N rack-parallel ingest pools feeding
// one aggregator scale with cores instead of serialising on a single
// mutex. The only global state is the dropped-message counter, which is
// off the sample hot path.
type Aggregator struct {
	db     *tsdb.DB
	shards []*aggShard
	mask   uint32

	// trace, when set, stamps batches at the ingest-decode and
	// store-commit stages of the obs stage trace.
	trace atomic.Pointer[obs.StageTrace]

	dropMu   sync.Mutex
	dropped  int
	dwaiters waitQueue // WaitDropped, single global key
}

// waiter is one blocked wait call: its channel is closed as soon as the
// counter it watches (keyed by node for sample waits, a single global
// key for drop waits) reaches the target.
type waiter struct {
	key    int
	target int
	ch     chan struct{}
}

// waitQueue is the shared event-driven waiter machinery behind
// WaitSamples and WaitDropped: register-or-return-immediately, wake on
// counter advance, deregister on cancellation.
type waitQueue struct {
	waiters []*waiter
}

// notifyLocked releases every waiter on key whose target count has been
// reached. Callers hold the mutex guarding the queue and its counter.
func (q *waitQueue) notifyLocked(key, count int) {
	kept := q.waiters[:0]
	for _, w := range q.waiters {
		if w.key == key && count >= w.target {
			close(w.ch)
			continue
		}
		kept = append(kept, w)
	}
	for i := len(kept); i < len(q.waiters); i++ {
		q.waiters[i] = nil
	}
	q.waiters = kept
}

// wait blocks until have() reaches n for key or ctx is done. mu guards
// the queue and the counter have() reads.
func (q *waitQueue) wait(ctx context.Context, mu sync.Locker, key, n int, have func() int) error {
	mu.Lock()
	if have() >= n {
		mu.Unlock()
		return nil
	}
	w := &waiter{key: key, target: n, ch: make(chan struct{})}
	q.waiters = append(q.waiters, w)
	mu.Unlock()

	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		mu.Lock()
		for i, other := range q.waiters {
			if other == w {
				q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
				break
			}
		}
		mu.Unlock()
		select {
		case <-w.ch: // the counter won the race against cancellation
			return nil
		default:
		}
		return ctx.Err()
	}
}

// NewAggregator creates an aggregator backed by its own tsdb store with
// default options.
func NewAggregator() *Aggregator {
	return NewAggregatorOn(tsdb.New(tsdb.Options{}))
}

// NewAggregatorOn creates an aggregator writing through to the given
// store (which may be shared with other readers).
func NewAggregatorOn(db *tsdb.DB) *Aggregator {
	n := db.Shards()
	a := &Aggregator{db: db, shards: make([]*aggShard, n), mask: uint32(n - 1)}
	for i := range a.shards {
		a.shards[i] = &aggShard{meta: make(map[int]*nodeMeta)}
	}
	return a
}

// shardFor returns the stripe owning a node's state.
func (a *Aggregator) shardFor(node int) *aggShard {
	if node < 0 {
		node = -node
	}
	return a.shards[uint32(node)&a.mask]
}

// Store returns the tsdb store behind this aggregator.
func (a *Aggregator) Store() *tsdb.DB { return a.db }

// SetTrace installs (or clears) the obs stage trace this aggregator
// stamps decoded and committed batches into. The swap is atomic, so it
// is safe against in-flight consumers, but for deterministic traces it
// should be installed before streaming starts.
func (a *Aggregator) SetTrace(t *obs.StageTrace) { a.trace.Store(t) }

// consumeWith routes one MQTT message, decoding into a reusable sample
// scratch slice: it returns the (possibly grown) scratch for the caller's
// next call, which is what makes the Ingest workers' steady-state decode
// allocation-free on binary batches. Nothing decoded into scratch is
// retained — AddBatch copies samples into the store before returning.
func (a *Aggregator) consumeWith(m mqtt.Message, scratch []float64) []float64 {
	if !mqtt.TopicMatches(gateway.TopicPrefix+"/+/power", m.Topic) {
		a.drop()
		return scratch
	}
	b, err := gateway.DecodeBatchInto(m.Payload, scratch)
	if err != nil {
		a.drop()
		return scratch
	}
	last := b.T0 + float64(len(b.Samples)-1)*b.Dt
	if tr := a.trace.Load(); tr != nil {
		tr.Stamp(obs.StageDecode, b.Node, wire.ToTick(last))
	}
	a.AddBatch(b)
	if tr := a.trace.Load(); tr != nil {
		// Stamped after the shard lock is released: messages are
		// worker-sticky per node (Ingest shards by topic; a single
		// client consumes serially), so commit stamps stay in commit
		// order per node — the determinism the snapshot property test
		// pins — without lengthening the shard critical section.
		tr.StampCommit(b.Node, wire.ToTick(b.T0), wire.ToTick(last))
	}
	return b.Samples
}

// AddBatch ingests one decoded power batch (also usable without MQTT).
// Out-of-order and duplicate-timestamp redelivery (lossy QoS-0 semantics)
// is tolerated: the store places samples at their sorted position and
// exact duplicates overwrite, so energy integrals cannot be corrupted by
// the transport. b.Samples is not retained — the caller may reuse it as
// decode scratch after the call returns.
func (a *Aggregator) AddBatch(b gateway.Batch) {
	sh := a.shardFor(b.Node)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := sh.meta[b.Node]
	if m == nil {
		m = &nodeMeta{}
		sh.meta[b.Node] = m
	}
	if m.batches > 0 && b.T0 <= m.lastT {
		m.reordered++
	}
	a.db.AppendBatch(b.Node, b.T0, b.Dt, b.Samples)
	last := b.T0 + float64(len(b.Samples)-1)*b.Dt
	if last > m.lastT {
		m.lastT = last
	}
	m.batches++
	m.ingested += len(b.Samples)
	sh.waiters.notifyLocked(b.Node, m.ingested)
}

// WaitSamples blocks until the aggregator has ingested at least n samples
// for the node or ctx is done. It is the event-driven replacement for
// polling Samples in a sleep loop: the MQTT reader goroutine wakes the
// waiter the moment the delivering batch is ingested, so wall-clock
// measurements see the pipeline latency, not a poll interval.
func (a *Aggregator) WaitSamples(ctx context.Context, node, n int) error {
	sh := a.shardFor(node)
	return sh.waiters.wait(ctx, &sh.mu, node, n, func() int {
		if m := sh.meta[node]; m != nil {
			return m.ingested
		}
		return 0
	})
}

// drop records one undecodable or unroutable message and wakes any
// WaitDropped callers whose target is now met.
func (a *Aggregator) drop() {
	a.dropMu.Lock()
	defer a.dropMu.Unlock()
	a.dropped++
	a.dwaiters.notifyLocked(0, a.dropped)
}

// WaitDropped blocks until the aggregator has dropped at least n
// undecodable or unroutable messages or ctx is done. Dropped packets
// carry no samples, so they escape the WaitSamples delivery handshake;
// fault-injection replays that assert exact undecodable counts (the E18
// corrupt-wire invariant) use this as the barrier for corrupted packets
// still in flight behind the last decodable batch.
func (a *Aggregator) WaitDropped(ctx context.Context, n int) error {
	return a.dwaiters.wait(ctx, &a.dropMu, 0, n, func() int { return a.dropped })
}

// Dropped returns the number of undecodable or unroutable messages.
func (a *Aggregator) Dropped() int {
	a.dropMu.Lock()
	defer a.dropMu.Unlock()
	return a.dropped
}

// Reordered returns how many batches arrived out of order (or overlapping
// an earlier batch) across all nodes.
func (a *Aggregator) Reordered() int {
	n := 0
	for _, sh := range a.shards {
		sh.mu.RLock()
		for _, m := range sh.meta {
			n += m.reordered
		}
		sh.mu.RUnlock()
	}
	return n
}

// Nodes returns the node IDs seen so far, sorted.
func (a *Aggregator) Nodes() []int {
	var out []int
	for _, sh := range a.shards {
		sh.mu.RLock()
		for id := range sh.meta {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Ints(out)
	return out
}

// Samples returns the number of samples ingested for a node. The count is
// monotonic (duplicates and later retention do not decrease it), which is
// what delivery accounting — fleet.Stream's WaitSamples handshake — needs.
func (a *Aggregator) Samples(node int) int {
	sh := a.shardFor(node)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if m := sh.meta[node]; m != nil {
		return m.ingested
	}
	return 0
}

// NodeEnergy integrates a node's stored power over [t0, t1].
func (a *Aggregator) NodeEnergy(node int, t0, t1 float64) (float64, error) {
	return a.db.Energy(node, t0, t1)
}

// MeanPower returns the mean power of a node's series over [t0, t1].
func (a *Aggregator) MeanPower(node int, t0, t1 float64) (float64, error) {
	e, err := a.NodeEnergy(node, t0, t1)
	if err != nil {
		return 0, err
	}
	if t1 <= t0 {
		return 0, errors.New("telemetry: empty window")
	}
	return e / (t1 - t0), nil
}

// Ingest fans message decoding out to a pool of worker goroutines, so one
// subscriber connection can keep every core busy parsing gateway batches
// instead of serialising the whole fleet's stream on the client's reader
// goroutine. Messages are sharded by topic, which preserves the per-node
// arrival order the reorder accounting relies on.
//
// Buffers are pooled end to end: the handler copies each borrowed MQTT
// payload into a pooled buffer (the payload is only valid during the
// handler call — see mqtt.Message), and every worker reuses one
// sample-decode scratch slice, so steady-state ingest of binary batches
// allocates nothing per message.
type Ingest struct {
	shards []chan ingestMsg
	bufs   sync.Pool // *[]byte payload carriers
	quit   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
}

// ingestMsg is one queued message; payload points into a pooled buffer
// owned by the receiving worker until it recycles it.
type ingestMsg struct {
	topic   string
	payload *[]byte
}

// NewIngest starts a decode pool feeding the aggregator. workers <= 0 uses
// one worker per CPU; depth <= 0 uses 1024 messages of buffer per shard.
func NewIngest(a *Aggregator, workers, depth int) *Ingest {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if depth <= 0 {
		depth = 1024
	}
	in := &Ingest{
		shards: make([]chan ingestMsg, workers),
		quit:   make(chan struct{}),
	}
	for i := range in.shards {
		ch := make(chan ingestMsg, depth)
		in.shards[i] = ch
		in.wg.Add(1)
		go func() {
			defer in.wg.Done()
			var scratch []float64
			for {
				select {
				case m := <-ch:
					scratch = a.consumeWith(mqtt.Message{Topic: m.topic, Payload: *m.payload}, scratch[:0])
					in.bufs.Put(m.payload)
				case <-in.quit:
					return
				}
			}
		}()
	}
	return in
}

// Handler returns the mqtt.MessageHandler that feeds the pool. A full
// shard applies backpressure to the subscriber connection, which pushes
// the overload back to the broker's per-session queue (where QoS-0
// messages drop, as mosquitto does) instead of growing memory here.
func (in *Ingest) Handler() mqtt.MessageHandler {
	return func(m mqtt.Message) {
		bp, _ := in.bufs.Get().(*[]byte)
		if bp == nil {
			bp = new([]byte)
		}
		*bp = append((*bp)[:0], m.Payload...)
		msg := ingestMsg{topic: m.Topic, payload: bp}
		select {
		case in.shards[shardOf(m.Topic, len(in.shards))] <- msg:
		case <-in.quit:
			in.bufs.Put(bp)
		}
	}
}

// shardOf is an inline (allocation-free) FNV-1a over the topic.
func shardOf(topic string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(topic); i++ {
		h ^= uint32(topic[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Close stops the pool. Messages still queued in the shards are discarded,
// so callers should confirm delivery (WaitSamples) before closing.
func (in *Ingest) Close() {
	in.once.Do(func() { close(in.quit) })
	in.wg.Wait()
}

// AttachParallel subscribes this aggregator to every gateway's power topic
// on a broker through a sharded decode pool; it is the one way ingest
// attaches to a broker. Close the client first, then the ingest pool.
func (a *Aggregator) AttachParallel(brokerAddr, clientID string, workers int) (*Ingest, *mqtt.Client, error) {
	in := NewIngest(a, workers, 0)
	c, err := mqtt.Dial(brokerAddr, mqtt.ClientOptions{
		ClientID:     clientID,
		CleanSession: true,
		OnMessage:    in.Handler(),
	})
	if err != nil {
		in.Close()
		return nil, nil, err
	}
	if err := c.Subscribe(mqtt.Subscription{Filter: gateway.TopicPrefix + "/+/power", QoS: 0}); err != nil {
		_ = c.Close()
		in.Close()
		return nil, nil, err
	}
	return in, c, nil
}
