// Package chaos is the deterministic fault-injection subsystem of the
// telemetry plane: it perturbs the gateway→broker MQTT path the way a
// real machine-room network does — loss, duplication, reordering,
// corruption, delay jitter, partitions and session crashes — while
// staying exactly reproducible. Every decision is drawn from a seeded
// per-link RNG in per-link publish order, which is deterministic (one
// gateway goroutine drives each link), so the same seed injects the
// same faults at the same stream positions on every run regardless of
// fleet-level goroutine interleaving. That is what lets the E18 soak
// suite assert `same seed ⇒ same counters` and tie aggregator-side
// effects (Reordered, undecodable drops) back to injected causes
// exactly.
//
// The package plugs into the transport as an mqtt.Link (see
// internal/mqtt/link.go): it only ever touches QoS-0 application
// messages — the paper's loss-tolerant streaming data — and passes
// QoS-1 traffic through untouched. It reads the sample count and the
// payload time of a gateway batch from the frame header itself
// (gateway.PayloadSamples, gateway.PayloadTickInfo).
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"davide/internal/gateway"
	"davide/internal/mqtt"
)

// ErrCrash is the injected session-crash error: a Link returns it from
// Send instead of delivering, simulating the gateway process dying
// mid-stream. The caller (internal/fleet) tears the MQTT session down,
// redials, and resumes the replay from its gateway.Cursor.
var ErrCrash = errors.New("chaos: injected session crash")

// Spec configures the faults injected on one link. Probabilities are
// per QoS-0 publish and mutually exclusive per packet (one uniform
// draw, compared against cumulative thresholds), so a packet suffers
// at most one of drop/duplicate/corrupt/hold.
type Spec struct {
	// Drop is the probability a publish is silently discarded.
	Drop float64
	// Dup is the probability a publish is delivered twice back to back.
	// The duplicate always lands behind the original, so every injected
	// duplicate surfaces as one aggregator Reordered count.
	Dup float64
	// Corrupt is the probability the payload is scrambled before
	// delivery. Corruption is guaranteed undecodable (the first byte is
	// forced to 0xFF, which is not the batch frame's magic), so every
	// corrupt packet surfaces as one aggregator undecodable drop — never
	// as silently wrong samples.
	Corrupt float64
	// Hold is the probability a publish is held back and released after
	// HoldSpan subsequent publishes — transport reordering.
	Hold float64
	// HoldSpan is how many subsequent publishes pass before a held one
	// is released (default 4).
	HoldSpan int
	// DelayPct is the fraction of deliveries preceded by a seeded
	// wall-clock sleep in (0, MaxDelay) — latency jitter. Jitter slows
	// the pipeline but cannot change any counter.
	DelayPct float64
	// MaxDelay bounds the injected jitter (0 disables it).
	MaxDelay time.Duration
	// PartitionEvery/PartitionLen cut connectivity in repeating windows:
	// of every PartitionEvery publishes, the last PartitionLen are
	// dropped wholesale (the link is partitioned from the broker).
	PartitionEvery int
	PartitionLen   int
	// CrashEvery tears the session down on every CrashEvery-th publish
	// (0 = never, 1 is invalid — the link could never make progress).
	// The crashed publish is not delivered and not counted as sent; the
	// resumed gateway re-publishes it, so crashes lose no data.
	CrashEvery int
}

// withDefaults fills unset tuning fields.
func (s Spec) withDefaults() Spec {
	if s.HoldSpan <= 0 {
		s.HoldSpan = 4
	}
	return s
}

// EffectiveHoldSpan returns the hold-release span the link will use
// (the package default when unset), or 0 when the spec injects no
// holds. Callers sizing out-of-order tolerance — a telemetry store's
// head window must absorb HoldSpan × batch-size samples, or late
// releases fall behind its sealed horizon unaccounted — check against
// this.
func (s Spec) EffectiveHoldSpan() int {
	if s.Hold <= 0 {
		return 0
	}
	return s.withDefaults().HoldSpan
}

// Active reports whether the spec injects any fault at all.
func (s Spec) Active() bool {
	return s.Drop > 0 || s.Dup > 0 || s.Corrupt > 0 || s.Hold > 0 ||
		(s.DelayPct > 0 && s.MaxDelay > 0) ||
		(s.PartitionEvery > 0 && s.PartitionLen > 0) || s.CrashEvery > 0
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"Drop", s.Drop}, {"Dup", s.Dup}, {"Corrupt", s.Corrupt}, {"Hold", s.Hold}, {"DelayPct", s.DelayPct}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("chaos: %s = %g out of [0, 1]", p.name, p.v)
		}
	}
	if sum := s.Drop + s.Dup + s.Corrupt + s.Hold; sum > 1 {
		return fmt.Errorf("chaos: fault probabilities sum to %g > 1", sum)
	}
	if s.MaxDelay < 0 {
		return errors.New("chaos: negative MaxDelay")
	}
	if s.CrashEvery == 1 || s.CrashEvery < 0 {
		return fmt.Errorf("chaos: CrashEvery = %d (need 0 or >= 2)", s.CrashEvery)
	}
	if s.PartitionEvery < 0 || s.PartitionLen < 0 {
		return errors.New("chaos: negative partition window")
	}
	if (s.PartitionEvery > 0) != (s.PartitionLen > 0) {
		return fmt.Errorf("chaos: partition window needs both PartitionEvery and PartitionLen (got %d/%d)", s.PartitionEvery, s.PartitionLen)
	}
	if s.PartitionLen > 0 && s.PartitionEvery <= s.PartitionLen {
		return fmt.Errorf("chaos: PartitionEvery %d must exceed PartitionLen %d", s.PartitionEvery, s.PartitionLen)
	}
	return nil
}

// Counters is the ledger of one link's injected faults. All counts are
// exact and deterministic for a given (Spec, seed, publish sequence).
type Counters struct {
	Sent      int64 // QoS-0 publishes offered to the link (crashed attempts excluded)
	Delivered int64 // packets actually written to the wire (incl. duplicates, corrupt and released holds)

	Dropped     int64 // silently discarded
	Partitioned int64 // discarded inside a partition window
	Corrupted   int64 // delivered undecodable
	Duplicated  int64 // extra copies delivered
	Held        int64 // held back for later release

	// LateReleases counts held packets released after at least one
	// newer packet reached the wire — exactly the releases the
	// aggregator sees as out-of-order. FlushReleases counts the rest
	// (released with nothing newer delivered: still in order).
	LateReleases  int64
	FlushReleases int64

	Crashes int64 // injected session crashes
	Delayed int64 // deliveries preceded by jitter

	// SamplesLost / SamplesDuplicated are the payload-sample totals
	// behind the packet counts, read from each faulted batch's frame
	// header (0 for a payload that is not a batch). They are what
	// delivery accounting (fleet's WaitSamples target) needs.
	SamplesLost       int64
	SamplesDuplicated int64
}

// Lost returns the packets that will never be ingested: dropped,
// partitioned, or delivered undecodable.
func (c Counters) Lost() int64 { return c.Dropped + c.Partitioned + c.Corrupted }

// ExpectedReorders returns how many aggregator-side Reordered counts
// the injected faults must produce: every duplicate plus every late
// release, and nothing else.
func (c Counters) ExpectedReorders() int64 { return c.Duplicated + c.LateReleases }

// Minus returns the component-wise difference c - o: the delta of one
// observation window.
func (c Counters) Minus(o Counters) Counters {
	c.Sent -= o.Sent
	c.Delivered -= o.Delivered
	c.Dropped -= o.Dropped
	c.Partitioned -= o.Partitioned
	c.Corrupted -= o.Corrupted
	c.Duplicated -= o.Duplicated
	c.Held -= o.Held
	c.LateReleases -= o.LateReleases
	c.FlushReleases -= o.FlushReleases
	c.Crashes -= o.Crashes
	c.Delayed -= o.Delayed
	c.SamplesLost -= o.SamplesLost
	c.SamplesDuplicated -= o.SamplesDuplicated
	return c
}

// Add accumulates o into c component-wise.
func (c *Counters) Add(o Counters) {
	c.Sent += o.Sent
	c.Delivered += o.Delivered
	c.Dropped += o.Dropped
	c.Partitioned += o.Partitioned
	c.Corrupted += o.Corrupted
	c.Duplicated += o.Duplicated
	c.Held += o.Held
	c.LateReleases += o.LateReleases
	c.FlushReleases += o.FlushReleases
	c.Crashes += o.Crashes
	c.Delayed += o.Delayed
	c.SamplesLost += o.SamplesLost
	c.SamplesDuplicated += o.SamplesDuplicated
}

// heldMsg is one publish held back for delayed release.
type heldMsg struct {
	seq int64
	m   mqtt.Message // cloned: owns its topic and payload
}

// Link injects the faults of one Spec into one client's publish stream.
// It implements mqtt.Link and survives session teardown/reconnect: the
// RNG, sequence counters and held packets carry across clients, so a
// crash-and-resume replay stays on the same deterministic fault
// schedule.
type Link struct {
	spec Spec
	rng  *rand.Rand

	mu           sync.Mutex
	seq          int64 // QoS-0 publishes seen (crashed attempts included)
	maxDelivered int64 // highest seq delivered decodable to the wire
	held         []heldMsg
	c            Counters
}

// NewLink creates a link with its own deterministic RNG.
func NewLink(spec Spec, seed int64) (*Link, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Link{spec: spec, rng: rand.New(rand.NewSource(seed))}, nil
}

// Counters returns a snapshot of the link's fault ledger.
func (l *Link) Counters() Counters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c
}

// Send implements mqtt.Link: it injects at most one fault into the
// message and releases any held packets that have come due.
func (l *Link) Send(m mqtt.Message, deliver mqtt.DeliverFunc) error {
	if m.QoS != 0 {
		// Billing-grade QoS-1 traffic is never faulted.
		return deliver(m)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	seq := l.seq
	if l.spec.CrashEvery > 0 && seq%int64(l.spec.CrashEvery) == 0 {
		l.c.Crashes++
		return ErrCrash
	}
	l.c.Sent++
	// Only faulted packets — the ones whose sample count enters the
	// ledger — pay for reading the frame header.
	samples := func() int64 { return int64(gateway.PayloadSamples(m.Payload)) }
	if l.inPartition(seq) {
		l.c.Partitioned++
		l.c.SamplesLost += samples()
		// The link is disconnected: held packets stay held until a
		// Send outside the window (or Flush) releases them.
		return nil
	}

	u := l.rng.Float64()
	var err error
	switch s := &l.spec; {
	case u < s.Drop:
		l.c.Dropped++
		l.c.SamplesLost += samples()
	case u < s.Drop+s.Dup:
		if err = l.deliverOne(m, seq, true, deliver); err == nil {
			if err = l.deliverOne(m, seq, true, deliver); err == nil {
				// Counted only once both copies reached the wire, so a
				// failed second delivery cannot skew the ledger.
				l.c.Duplicated++
				l.c.SamplesDuplicated += samples()
			}
		}
	case u < s.Drop+s.Dup+s.Corrupt:
		// ordered=false: an undecodable packet cannot advance the
		// aggregator's notion of newest-seen time, so it must not
		// count toward late-release classification either. Counted
		// only once the packet reached the wire, like the dup branch.
		if err = l.deliverOne(l.corrupt(m), seq, false, deliver); err == nil {
			l.c.Corrupted++
			l.c.SamplesLost += samples()
		}
	case u < s.Drop+s.Dup+s.Corrupt+s.Hold:
		l.c.Held++
		l.held = append(l.held, heldMsg{seq: seq, m: m.Clone()})
	default:
		err = l.deliverOne(m, seq, true, deliver)
	}
	if err != nil {
		return err
	}
	return l.releaseDue(deliver)
}

// Flush implements mqtt.Link: it releases every held packet, oldest
// first, classifying each as late (out of order at the aggregator) or
// in-order exactly as releaseDue would.
func (l *Link) Flush(deliver mqtt.DeliverFunc) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.release(deliver, func(heldMsg) bool { return true })
}

// releaseDue releases held packets whose span has elapsed. Callers hold l.mu.
func (l *Link) releaseDue(deliver mqtt.DeliverFunc) error {
	span := int64(l.spec.HoldSpan)
	return l.release(deliver, func(e heldMsg) bool { return l.seq-e.seq >= span })
}

// release delivers held packets matching due, in hold order, stopping
// at the first that is not due (holds release FIFO). Callers hold l.mu.
func (l *Link) release(deliver mqtt.DeliverFunc, due func(heldMsg) bool) error {
	for len(l.held) > 0 && due(l.held[0]) {
		e := l.held[0]
		late := l.maxDelivered > e.seq
		if err := l.deliverOne(e.m, e.seq, true, deliver); err != nil {
			return err
		}
		if late {
			l.c.LateReleases++
		} else {
			l.c.FlushReleases++
		}
		copy(l.held, l.held[1:])
		l.held = l.held[:len(l.held)-1]
	}
	return nil
}

// deliverOne writes one packet to the wire, with optional seeded delay
// jitter. ordered marks deliveries whose timestamps the aggregator can
// read (everything but corrupted payloads) for late-release tracking.
// Callers hold l.mu; the RNG draws happen under it (keeping the fault
// schedule deterministic), but the sleep and the blocking wire write
// release it so concurrent ledger snapshots (Counters) don't
// stall behind them — the single-publisher contract guarantees no
// other Send or Flush can interleave.
func (l *Link) deliverOne(m mqtt.Message, seq int64, ordered bool, deliver mqtt.DeliverFunc) error {
	var delay time.Duration
	if s := &l.spec; s.MaxDelay > 0 && s.DelayPct > 0 && l.rng.Float64() < s.DelayPct {
		l.c.Delayed++
		delay = time.Duration(l.rng.Float64() * float64(s.MaxDelay))
	}
	l.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	err := deliver(m)
	l.mu.Lock()
	if err != nil {
		return err
	}
	l.c.Delivered++
	if ordered && seq > l.maxDelivered {
		l.maxDelivered = seq
	}
	return nil
}

// inPartition reports whether publish seq falls in a partition window.
func (l *Link) inPartition(seq int64) bool {
	s := &l.spec
	if s.PartitionEvery <= 0 || s.PartitionLen <= 0 {
		return false
	}
	pos := (seq - 1) % int64(s.PartitionEvery)
	return pos >= int64(s.PartitionEvery-s.PartitionLen)
}

// corrupt returns a scrambled copy of the message that is guaranteed
// undecodable by the batch decoder: the first byte becomes 0xFF (not the
// 0xDA frame magic) and a few seeded bytes are flipped.
func (l *Link) corrupt(m mqtt.Message) mqtt.Message {
	m = m.Clone()
	if len(m.Payload) == 0 {
		return m
	}
	m.Payload[0] = 0xFF
	for i := 0; i < 3 && len(m.Payload) > 1; i++ {
		j := 1 + l.rng.Intn(len(m.Payload)-1)
		m.Payload[j] ^= byte(1 + l.rng.Intn(255))
	}
	return m
}

// Plan assigns fault specs across a fleet: one Default spec, an
// optional per-node override, and a base seed from which each node's
// link RNG is derived. A Plan is pure configuration — safe to share
// and reuse; every NewLink call starts the node's deterministic fault
// schedule from the beginning.
type Plan struct {
	Seed    int64
	Default Spec
	// NodeSpec, when non-nil, overrides the spec for individual nodes
	// (return ok=false to fall back to Default) — how split-brain
	// partitions half a fleet.
	NodeSpec func(node int) (Spec, bool)
}

// SpecFor resolves the spec for one node.
func (p *Plan) SpecFor(node int) Spec {
	if p.NodeSpec != nil {
		if s, ok := p.NodeSpec(node); ok {
			return s
		}
	}
	return p.Default
}

// Validate checks the default spec (per-node overrides are validated
// by NewLink when the node's link is built).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	return p.Default.Validate()
}

// NewLink builds node's fault-injection link with a seed derived from
// the plan seed and the node ID (a splitmix64 mix, so adjacent nodes
// get uncorrelated streams).
func (p *Plan) NewLink(node int) (*Link, error) {
	if node < 0 {
		return nil, errors.New("chaos: negative node ID")
	}
	return NewLink(p.SpecFor(node), mixSeed(p.Seed, node))
}

// mixSeed derives a per-node RNG seed (splitmix64 finalizer).
func mixSeed(seed int64, node int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(node+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
