package fleet

// Plane is the one way to stand up a telemetry plant — broker(s), gateway
// fleet, ingest pool and store — at any scale: N per-rack brokers, each
// fed by its own slice of the gateway fleet and drained by its own ingest
// pool into one shared store. With Racks > 1 a bridge session forwards
// every rack's telemetry topics into one spine broker for fabric-wide
// consumers; the tiered layout is how the architecture reaches O(1k–10k)
// nodes without serialising the whole fleet through one broker goroutine.
// Racks = 1 is the paper's pilot (45 nodes, one broker): there is nothing
// above the only rack, so no spine and no bridge are built, and the rack
// broker already carries the whole stream. Every broker the plane builds
// serves in process (an mqtt "pipe:" address): the packets are real
// MQTT, the stream under them an in-process conn, not a socket.
//
// Data paths:
//
//	gateways ── rack broker ── rack ingest pool ── shared Aggregator/store
//	                └── bridge ── spine broker ── (attach-on-demand consumers)
//	                    (Racks > 1 only)
//
// The primary aggregator ingests at the rack tier (shortest path, what
// the E20 benchmarks measure); the spine carries the same stream for
// consumers that want one subscription over the whole fabric — attach
// one with telemetry.(*Aggregator).AttachParallel(SpineAddr(), ...),
// which at one rack is the rack broker itself.
//
// Determinism contract (DESIGN.md §8): a node's published samples depend
// only on (SeedBase+node, its PTP clock seed, the window), its delivery
// order is preserved per node end to end (one gateway session in, FIFO
// broker session queues, topic-sharded ingest), and each node's state
// lives on exactly one aggregator/store stripe. Rack partitioning moves
// nodes between brokers but changes none of those, so the same seed
// yields bit-identical per-node series — and EnergyTotal, which sums in
// sorted node order, yields bit-identical fleet totals — for any Racks.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"davide/internal/chaos"
	"davide/internal/gateway"
	"davide/internal/mqtt"
	"davide/internal/obs"
	"davide/internal/telemetry"
	"davide/internal/tsdb"
)

// PlaneSpec describes a plane. Worker pools and queues are sized to the
// machine and the NodesHint.
type PlaneSpec struct {
	// Racks is the number of per-rack broker cells (>= 1); spine and
	// bridges exist iff Racks > 1.
	Racks int
	// Gateway configures every rack's fleet (one gateway per node, as in
	// Fleet). Gateway.Faults, if set, injects per-gateway transport
	// faults, whatever the rack count.
	Gateway GatewaySpec
	// NodesHint is the expected total node count, used to size broker
	// session queues so a full window's batches never overflow a
	// subscriber queue (default 1024 nodes).
	NodesHint int
	// BridgeFaults, when non-nil, injects deterministic faults on the
	// rack→spine uplinks (so it needs Racks > 1). The plan is keyed by
	// *rack index*, not node ID. Faults here only shape the spine copy
	// of the stream — the primary aggregator sits below the bridges and
	// never sees them.
	BridgeFaults *chaos.Composite
	// Obs, when non-nil, instruments the plane: a stage trace stamps
	// every batch at encode/fanout/uplink/decode/commit, and broker,
	// bridge, fleet, aggregator and store counters are published into
	// the registry (DESIGN.md §9). Nil runs the plane uninstrumented —
	// the hot paths carry no registry references at all.
	Obs *obs.Registry
}

func (sp PlaneSpec) withDefaults() PlaneSpec {
	if sp.NodesHint <= 0 {
		sp.NodesHint = 1024
	}
	return sp
}

// coresPerRack is one rack's share of the machine (min 1): the size of
// every rack's publish pool and decode pool, so that all racks together
// saturate the cores.
func (sp PlaneSpec) coresPerRack() int {
	return max(1, runtime.GOMAXPROCS(0)/sp.Racks)
}

// rackQueueDepth sizes a rack broker's per-session queue, scaled with the
// rack's node share (4 messages of slack per node) and floored at the
// broker default. A window publishes every node before it waits on any,
// so all of a rack's batches can be in flight toward a subscriber session
// at once. The broker drops only what overflows this queue while the
// consumer's buffer behind it is full too (an ingest shard holds 1024
// messages, a bridge queue this depth again), so a rack window of up to
// this depth plus 1024 batches is drop-free even if nothing decodes
// until the last publish. The in-process conn between session and
// consumer, bounded at 256 KiB unread, only adds slack to that. The depth
// is a bound, not an allocation: every session gets it, but a queue's
// storage follows what it holds, so a gateway session, which publishes at
// QoS 0 and never subscribes, holds none.
func (sp PlaneSpec) rackQueueDepth() int {
	nodesPerRack := (sp.NodesHint + sp.Racks - 1) / sp.Racks
	return max(1024, 4*nodesPerRack)
}

func (sp PlaneSpec) spineQueueDepth() int {
	return max(1024, 4*sp.NodesHint)
}

// rackCell is one rack's slice of the fabric.
type rackCell struct {
	broker *mqtt.Broker
	fleet  *Fleet
	ingest *telemetry.Ingest
	sub    *mqtt.Client
	bridge *mqtt.Bridge         // nil in a one-rack plane
	link   *chaos.CompositeLink // uplink chaos link, nil without BridgeFaults
}

// Plane owns Racks rack cells, the spine broker above them when there
// is more than one, and one shared store-backed aggregator fed at the
// rack tier.
type Plane struct {
	spec  PlaneSpec
	spine *mqtt.Broker // nil in a one-rack plane: the rack broker is the whole fabric
	db    *tsdb.DB
	agg   *telemetry.Aggregator
	trace *obs.StageTrace // nil unless spec.Obs is set
	racks []*rackCell
	once  sync.Once
}

// PlaneStats reports one Plane.Stream call. The embedded StreamStats is
// the rack fleets' merged accounting (Wall spans the whole rack-parallel
// fan-out); bridge fields account the rack→spine hop.
type PlaneStats struct {
	StreamStats
	Racks   int
	PerRack []StreamStats
	// Bridge sums the bridges' counter deltas for this stream window
	// (zero in a one-rack plane, which has no bridge).
	Bridge mqtt.BridgeStats
	// BridgeFaults sums the uplink chaos deltas for this window (zero
	// without BridgeFaults).
	BridgeFaults chaos.Counters
}

// NewPlane builds the rack cells, the spine above them (Racks > 1) and
// the shared aggregator. Gateways dial lazily on first Stream, so a
// 10k-node plane costs only its brokers until streamed.
func NewPlane(spec PlaneSpec) (*Plane, error) {
	if spec.Racks < 1 {
		return nil, errors.New("fleet: plane needs at least one rack")
	}
	if spec.BridgeFaults != nil {
		if spec.Racks == 1 {
			return nil, errors.New("fleet: bridge faults need rack→spine uplinks (Racks > 1)")
		}
		if err := spec.BridgeFaults.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: bridge faults: %w", err)
		}
	}
	spec = spec.withDefaults()
	db := tsdb.New(tsdb.Options{})
	p := &Plane{spec: spec, db: db, agg: telemetry.NewAggregatorOn(db)}
	if spec.Racks > 1 {
		spine, err := mqtt.NewBroker("pipe:")
		if err != nil {
			return nil, err
		}
		spine.QueueDepth = spec.spineQueueDepth()
		p.spine = spine
	}
	if reg := spec.Obs; reg != nil {
		p.trace = obs.NewStageTrace(reg, spec.Racks)
		p.agg.SetTrace(p.trace)
		if p.spine != nil {
			registerBroker(reg, "spine", p.spine)
		}
		registerStore(reg, db)
		agg := p.agg
		reg.CounterFunc("davide_agg_dropped_total",
			func() float64 { return float64(agg.Dropped()) })
		reg.CounterFunc("davide_agg_reordered_total",
			func() float64 { return float64(agg.Reordered()) })
	}
	for r := 0; r < spec.Racks; r++ {
		cell, err := p.buildRack(r)
		if err != nil {
			_ = p.Close()
			return nil, fmt.Errorf("fleet: rack %d: %w", r, err)
		}
		p.racks = append(p.racks, cell)
	}
	return p, nil
}

func (p *Plane) buildRack(r int) (*rackCell, error) {
	broker, err := mqtt.NewBroker("pipe:")
	if err != nil {
		return nil, err
	}
	broker.QueueDepth = p.spec.rackQueueDepth()
	cell := &rackCell{broker: broker}
	fail := func(err error) (*rackCell, error) {
		cell.close()
		return nil, err
	}
	if p.spec.Obs != nil {
		// Installed before any client dials, so every routed publish is
		// stamped from the first window on.
		broker.Trace = stampHook(p.trace, obs.StageFanout)
		registerBroker(p.spec.Obs, obs.RackLabel(r), broker)
	}
	cell.fleet, err = New(broker.Addr(), p.spec.Gateway, p.spec.coresPerRack())
	if err != nil {
		return fail(err)
	}
	if p.spec.Obs != nil {
		cell.fleet.AttachObs(p.spec.Obs, obs.RackLabel(r), p.trace)
	}
	cell.ingest, cell.sub, err = p.agg.AttachParallel(
		broker.Addr(), fmt.Sprintf("plane-agg-r%02d", r), p.spec.coresPerRack())
	if err != nil {
		return fail(err)
	}
	if p.spine == nil {
		return cell, nil // one rack: no spine to forward to
	}
	if p.spec.BridgeFaults != nil {
		cell.link, err = p.spec.BridgeFaults.BuildLink(r)
		if err != nil {
			return fail(err)
		}
	}
	bopts := mqtt.BridgeOptions{
		Name:       fmt.Sprintf("bridge-r%02d", r),
		Filters:    []mqtt.Subscription{{Filter: gateway.TopicPrefix + "/+/power", QoS: 0}},
		QueueDepth: p.spec.rackQueueDepth(),
	}
	if cell.link != nil {
		bopts.Link = cell.link
	}
	if p.spec.Obs != nil {
		bopts.OnForward = stampHook(p.trace, obs.StageUplink)
	}
	cell.bridge, err = mqtt.NewBridge(broker.Addr(), p.spine.Addr(), bopts)
	if err != nil {
		return fail(err)
	}
	if p.spec.Obs != nil {
		registerBridge(p.spec.Obs, obs.RackLabel(r), cell.bridge)
	}
	return cell, nil
}

// stampHook adapts a broker/bridge payload hook into a stage stamp. The
// codec's header peek recovers (node, newest tick) without decoding the
// samples; a payload that is not a power batch stamps nothing.
func stampHook(tr *obs.StageTrace, stage obs.Stage) func(topic string, payload []byte) {
	return func(_ string, payload []byte) {
		if node, _, newest, ok := gateway.PayloadTickInfo(payload); ok {
			tr.Stamp(stage, node, newest)
		}
	}
}

func (c *rackCell) close() {
	if c.fleet != nil {
		_ = c.fleet.Close()
	}
	if c.bridge != nil {
		_ = c.bridge.Close()
	}
	if c.sub != nil {
		_ = c.sub.Close()
	}
	if c.ingest != nil {
		c.ingest.Close()
	}
	if c.broker != nil {
		_ = c.broker.Close()
	}
}

// Aggregator returns the shared rack-tier aggregator.
func (p *Plane) Aggregator() *telemetry.Aggregator { return p.agg }

// Trace returns the plane's stage trace (nil unless PlaneSpec.Obs was
// set).
func (p *Plane) Trace() *obs.StageTrace { return p.trace }

// Store returns the shared store behind the aggregator.
func (p *Plane) Store() *tsdb.DB { return p.db }

// SpineAddr returns the address a fabric-wide consumer subscribes at.
func (p *Plane) SpineAddr() string { return p.SpineBroker().Addr() }

// SpineBroker exposes the broker that carries the whole fabric's stream
// (stats inspection, Kick-based resilience drills): the spine, or in a
// one-rack plane the rack broker.
func (p *Plane) SpineBroker() *mqtt.Broker {
	if p.spine == nil {
		return p.racks[0].broker
	}
	return p.spine
}

// RackAddr returns rack r's broker address.
func (p *Plane) RackAddr(r int) string { return p.racks[r].broker.Addr() }

// RackBroker exposes rack r's broker (stats inspection, Kick-based
// resilience drills).
func (p *Plane) RackBroker(r int) *mqtt.Broker { return p.racks[r].broker }

// Racks returns the rack count.
func (p *Plane) Racks() int { return len(p.racks) }

// uplinked returns the cells with a bridge above them: every rack, or
// none in a one-rack plane.
func (p *Plane) uplinked() []*rackCell {
	if p.spine == nil {
		return nil
	}
	return p.racks
}

// RackFor returns the rack index Stream assigns the i-th stream of n
// (contiguous equal shares over the node-sorted order).
func RackFor(i, n, racks int) int { return i * racks / n }

// partition splits the streams into contiguous node-sorted shares, one
// per rack. Sorting first makes the assignment a pure function of the
// node set, independent of caller order.
func (p *Plane) partition(streams []NodeStream) [][]NodeStream {
	sorted := append([]NodeStream(nil), streams...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })
	parts := make([][]NodeStream, len(p.racks))
	for i, ns := range sorted {
		r := RackFor(i, len(sorted), len(p.racks))
		parts[r] = append(parts[r], ns)
	}
	return parts
}

// Stream replays [t0, t1) of every node signal through the plane: each
// rack streams its share concurrently through its own broker and ingest
// pool into the shared aggregator, then the bridges drain so the spine
// copy is complete before the call returns. Delivery accounting is
// per-node exact, as in Fleet.Stream.
func (p *Plane) Stream(ctx context.Context, streams []NodeStream, t0, t1 float64) (PlaneStats, error) {
	if err := validateStreams(streams, t0, t1); err != nil {
		return PlaneStats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	uplinked := p.uplinked()
	bridgeBefore := make([]mqtt.BridgeStats, len(uplinked))
	faultsBefore := make([]chaos.Counters, len(uplinked))
	for r, cell := range uplinked {
		bridgeBefore[r] = cell.bridge.Stats()
		if cell.link != nil {
			faultsBefore[r] = cell.link.Counters()
		}
	}

	parts := p.partition(streams)
	if p.trace != nil {
		// Route this window's stamps by the partition just computed, and
		// reset the per-node frontiers so a repeated window is not scored
		// as one giant reordering against the previous replay.
		maxNode := 0
		for _, part := range parts {
			for _, ns := range part {
				maxNode = max(maxNode, ns.Node)
			}
		}
		// Dense slice, not a map: the lookup runs on every stamp.
		rackOf := make([]int32, maxNode+1)
		for r, part := range parts {
			for _, ns := range part {
				rackOf[ns.Node] = int32(r)
			}
		}
		p.trace.SetRackOf(func(node int) int {
			if node < 0 || node >= len(rackOf) {
				return 0
			}
			return int(rackOf[node])
		})
		// Sized here, before the rack fan-out starts, so every stamp takes
		// the lock-free dense path; the per-rack fleets' own EnsureNodes
		// calls become no-ops.
		p.trace.EnsureNodes(maxNode + 1)
		p.trace.BeginWindow()
	}
	start := time.Now()
	perRack := make([]StreamStats, len(p.racks))
	errs := make([]error, len(p.racks))
	var wg sync.WaitGroup
	for r, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(r int, part []NodeStream) {
			defer wg.Done()
			perRack[r], errs[r] = p.racks[r].fleet.stream(ctx, part, t0, t1, p.agg)
		}(r, part)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return PlaneStats{}, err
	}

	// The rack-tier handshake above confirmed primary ingest; drain the
	// bridges so the spine copy (and the uplink fault ledger) is settled
	// too. Bound the wait when the caller's context has no deadline.
	dctx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, DefaultWaitTimeout)
		defer cancel()
	}
	for _, cell := range uplinked {
		if err := cell.bridge.Drain(dctx); err != nil {
			return PlaneStats{}, fmt.Errorf("fleet: bridge drain: %w", err)
		}
	}

	stats := PlaneStats{Racks: len(p.racks), PerRack: perRack}
	for _, rs := range perRack {
		stats.Nodes += rs.Nodes
		stats.Samples += rs.Samples
		stats.Batches += rs.Batches
		stats.Bytes += rs.Bytes
		stats.WireBytes += rs.WireBytes
		stats.ClientBufReuses += rs.ClientBufReuses
		stats.Restarts += rs.Restarts
		stats.Faults.Add(rs.Faults)
		stats.PerNode = append(stats.PerNode, rs.PerNode...)
	}
	for r, cell := range uplinked {
		delta := cell.bridge.Stats()
		delta.Forwarded -= bridgeBefore[r].Forwarded
		delta.ForwardedBytes -= bridgeBefore[r].ForwardedBytes
		delta.Dropped -= bridgeBefore[r].Dropped
		delta.Retries -= bridgeBefore[r].Retries
		delta.UplinkRedials -= bridgeBefore[r].UplinkRedials
		delta.SourceRedials -= bridgeBefore[r].SourceRedials
		stats.Bridge.Add(delta)
		if cell.link != nil {
			stats.BridgeFaults.Add(cell.link.Counters().Minus(faultsBefore[r]))
		}
	}
	sort.Slice(stats.PerNode, func(i, j int) bool { return stats.PerNode[i].Node < stats.PerNode[j].Node })
	stats.Wall = time.Since(start)
	return stats, nil
}

// StreamLevels is Stream over one window of constant per-node power
// levels (levels[n] is node n's draw in watts over [t0, t1)): the live
// control plane's per-tick publish, as Fleet.StreamLevels.
func (p *Plane) StreamLevels(ctx context.Context, levels []float64, t0, t1 float64) (PlaneStats, error) {
	return p.Stream(ctx, levelStreams(levels), t0, t1)
}

// EnergyTotal sums per-node energy over [t0, t1] in sorted node order —
// the fleet total the determinism contract pins: for a fixed seed it is
// bit-identical for any rack partitioning of the same node set.
func (p *Plane) EnergyTotal(t0, t1 float64) (float64, error) {
	total := 0.0
	for _, node := range p.agg.Nodes() {
		e, err := p.agg.NodeEnergy(node, t0, t1)
		if err != nil {
			return 0, err
		}
		total += e
	}
	return total, nil
}

// Close tears the plane down: fleets first (no new input), then bridges,
// ingest pools, rack brokers, and the spine if there is one.
func (p *Plane) Close() error {
	var first error
	p.once.Do(func() {
		for _, cell := range p.racks {
			if cell.fleet != nil {
				if err := cell.fleet.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		for _, cell := range p.racks {
			cell.fleet = nil // close() must not double-close
			cell.close()
		}
		if p.spine != nil {
			if err := p.spine.Close(); err != nil && first == nil {
				first = err
			}
		}
	})
	return first
}
