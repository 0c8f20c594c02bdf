// Package fleet orchestrates the gateway side of the D.A.V.I.D.E.
// telemetry plane at cluster scale: it assembles one energy gateway per
// node — sampling monitor, PTP-disciplined clock and a persistent MQTT
// client — from a single GatewaySpec, and replays windows of node power
// signals through a real broker concurrently, over a bounded worker pool.
//
// The package exists so that experiment drivers (internal/core, cmd/,
// examples/) never hand-build the per-node monitor/clock/client/gateway
// chain: they describe the fleet once and stream as many windows as they
// like. Gateways and their MQTT connections are dialed lazily on first use
// and reused across Stream calls, which is what a real deployment does —
// the BeagleBone on each node keeps one long-lived broker session.
//
// Delivery completion is event-driven: workers only publish, and once
// every node of the window is on the wire Stream waits on
// telemetry.Aggregator.WaitSamples for exactly the samples each gateway
// put there, so StreamStats.Wall measures the pipeline (encode, TCP,
// broker fan-out, decode, ingest), not a poll interval.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"davide/internal/chaos"
	"davide/internal/gateway"
	"davide/internal/monitors"
	"davide/internal/mqtt"
	"davide/internal/ptp"
	"davide/internal/sensor"
	"davide/internal/telemetry"
)

// DefaultWaitTimeout bounds a window's delivery waits when the Stream
// context carries no deadline of its own. The clock starts once every
// node of the window has published, so the bound never shrinks with
// window size or fleet size.
const DefaultWaitTimeout = 10 * time.Second

// GatewaySpec describes how to build every gateway in a fleet. Zero fields
// other than SampleRate take the pilot's energy-gateway defaults; the ADC
// chain itself is the pilot's (§III-A1: 12 bits, 0.5 LSB noise, 20 kW full
// scale, 5 µs residual PTP offset) — build monitors directly to study
// another one.
type GatewaySpec struct {
	// SampleRate is the published output rate in samples per second of
	// virtual time. Required.
	SampleRate float64
	// Oversample is the raw-to-output rate ratio (default 16).
	Oversample float64
	// BatchSamples is the number of samples per MQTT batch (default 512).
	BatchSamples int
	// ClientPrefix prefixes the per-node MQTT client IDs (default "fleet").
	ClientPrefix string
	// SeedBase offsets the per-node monitor noise seeds (default 1000).
	SeedBase int64
	// Faults, when non-nil, injects deterministic transport faults into
	// every gateway's MQTT link: a named preset (ChaosPreset, one
	// always-on phase) or a phase-windowed preset stack (ChaosStack).
	// Injected session crashes are recovered transparently: the fleet
	// tears the member's session down, redials, and resumes the window
	// from the gateway's replay cursor.
	Faults *chaos.Composite
}

// maxGatewayRestarts bounds crash/reconnect cycles per node per window,
// a safety net against a misconfigured crash schedule (with the minimum
// legal CrashEvery of 2, every other publish attempt still progresses,
// so real plans stay far below this).
const maxGatewayRestarts = 1024

// withDefaults fills unset fields with the pilot gateway configuration.
func (sp GatewaySpec) withDefaults() GatewaySpec {
	if sp.Oversample == 0 {
		sp.Oversample = 16
	}
	if sp.BatchSamples == 0 {
		sp.BatchSamples = 512
	}
	if sp.ClientPrefix == "" {
		sp.ClientPrefix = "fleet"
	}
	if sp.SeedBase == 0 {
		sp.SeedBase = 1000
	}
	return sp
}

// Validate reports whether the spec can build gateways.
func (sp GatewaySpec) Validate() error {
	if sp.SampleRate <= 0 {
		return errors.New("fleet: sample rate must be positive")
	}
	if sp.Faults != nil {
		if err := sp.Faults.Validate(); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	return nil
}

// monitorSpec derives the sampling-chain spec for one gateway.
func (sp GatewaySpec) monitorSpec() monitors.Spec {
	return monitors.Spec{
		Class:        monitors.EnergyGateway,
		RawRate:      sp.SampleRate * sp.Oversample,
		OutputRate:   sp.SampleRate,
		Averaged:     true,
		Bits:         12,
		NoiseLSB:     0.5,
		ClockOffsetS: 5e-6,
		FullScale:    20000,
	}
}

// member is one assembled node gateway with its persistent broker
// session. client is guarded by the fleet mutex (restartMember swaps it
// mid-stream); gw and link are stable for the member's life.
type member struct {
	client *mqtt.Client
	gw     *gateway.Gateway
	// link is the node's fault-injection interceptor (nil without
	// chaos). It survives session restarts, keeping the node on one
	// deterministic fault schedule.
	link     *chaos.CompositeLink
	restarts int
}

// Fleet owns N node gateways attached to one broker and streams signal
// windows through them concurrently.
type Fleet struct {
	brokerAddr string
	spec       GatewaySpec
	workers    int

	// streamMu serialises Stream calls: gateways keep per-window counters
	// and an MQTT session each, so one window streams at a time (the pool
	// inside Stream is where the concurrency lives).
	streamMu sync.Mutex

	// obs, when set by AttachObs, carries this fleet's registry counters
	// and stage trace (nil until attached; loaded per window).
	obs atomic.Pointer[fleetMetrics]

	mu      sync.Mutex
	members map[int]*member
	closed  bool
}

// New creates a fleet publishing to the broker at brokerAddr. workers
// bounds the number of gateways streaming concurrently; workers <= 0 uses
// one worker per CPU. Gateways are dialed lazily on first use.
func New(brokerAddr string, spec GatewaySpec, workers int) (*Fleet, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if brokerAddr == "" {
		return nil, errors.New("fleet: broker address required")
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Fleet{
		brokerAddr: brokerAddr,
		spec:       spec,
		workers:    workers,
		members:    make(map[int]*member),
	}, nil
}

// Workers returns the concurrency bound of the streaming pool.
func (f *Fleet) Workers() int { return f.workers }

// Size returns the number of gateways assembled so far.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// Close disconnects every gateway's broker session.
func (f *Fleet) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	var first error
	for _, m := range f.members {
		if err := m.client.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// member returns the node's gateway, assembling and dialing it on first
// use. Assembly happens outside the fleet lock so workers dial their
// nodes' connections in parallel.
func (f *Fleet) member(node int) (*member, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, errors.New("fleet: closed")
	}
	if m, ok := f.members[node]; ok {
		f.mu.Unlock()
		return m, nil
	}
	f.mu.Unlock()

	var link *chaos.CompositeLink
	if f.spec.Faults != nil {
		var err error
		link, err = f.spec.Faults.BuildLink(node)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %d: %w", node, err)
		}
	}
	client, err := f.dialMember(node, link)
	if err != nil {
		return nil, fmt.Errorf("fleet: node %d: %w", node, err)
	}
	mon, err := monitors.New(f.spec.monitorSpec(), f.spec.SeedBase+int64(node))
	if err != nil {
		_ = client.Close()
		return nil, fmt.Errorf("fleet: node %d: %w", node, err)
	}
	clock, err := ptp.NewClock(0, 0, 0, int64(node))
	if err != nil {
		_ = client.Close()
		return nil, fmt.Errorf("fleet: node %d: %w", node, err)
	}
	gw, err := gateway.New(node, mon, clock, gateway.ClientPublisher{C: client}, f.spec.BatchSamples)
	if err != nil {
		_ = client.Close()
		return nil, fmt.Errorf("fleet: node %d: %w", node, err)
	}
	if fm := f.obs.Load(); fm != nil {
		gw.Trace = fm.trace
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		_ = client.Close()
		return nil, errors.New("fleet: closed")
	}
	if existing, ok := f.members[node]; ok {
		_ = client.Close()
		return existing, nil
	}
	m := &member{client: client, gw: gw, link: link}
	f.members[node] = m
	return m, nil
}

// dialMember opens one node's broker session, with the node's chaos
// link (if any) installed on the client.
func (f *Fleet) dialMember(node int, link *chaos.CompositeLink) (*mqtt.Client, error) {
	opts := mqtt.ClientOptions{ClientID: fmt.Sprintf("%s%02d", f.spec.ClientPrefix, node)}
	if link != nil {
		opts.Link = link
	}
	return mqtt.Dial(f.brokerAddr, opts)
}

// restartMember simulates a gateway reboot after an injected crash:
// abrupt session teardown (no DISCONNECT), a fresh dial under the same
// client ID (the broker's session takeover path), and the same chaos
// link so the fault schedule continues deterministically. The caller
// resumes the window from its gateway.Cursor.
func (f *Fleet) restartMember(node int, m *member) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("fleet: closed")
	}
	old := m.client
	f.mu.Unlock()
	if err := old.Abort(); err != nil {
		// Redialing the same client ID after an undrained abort could
		// discard in-flight publishes and silently break the exact
		// delivery accounting — fail the node's stream loudly instead.
		return fmt.Errorf("fleet: node %d: %w", node, err)
	}

	client, err := f.dialMember(node, m.link)
	if err != nil {
		return fmt.Errorf("fleet: node %d reconnect: %w", node, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		_ = client.Close()
		return errors.New("fleet: closed")
	}
	m.client = client
	m.gw.Pub = gateway.ClientPublisher{C: client}
	m.restarts++
	return nil
}

// NodeStream pairs a node ID with the power signal its gateway samples.
type NodeStream struct {
	Node   int
	Signal sensor.Signal
}

// NodeStats reports one node's share of a Stream call.
type NodeStats struct {
	Node      int
	Samples   int     // power samples published in this window
	Batches   int     // power batches published in this window
	EnergyJ   float64 // gateway-side energy estimate for the window
	Bytes     int64   // MQTT payload bytes sent in this window
	WireBytes int64   // encoded power-batch bytes (the codec's share of Bytes)
	BufReuses int64   // client pooled-buffer reuses in this window
	Delivered bool    // aggregator confirmed every sample arrived
	// Faults is this window's injected-fault delta on the node's chaos
	// link (nil when the fleet runs without fault injection).
	Faults *chaos.Counters
	// Restarts counts gateway crash/reconnect cycles in this window.
	Restarts int
}

// WireBytesPerSample is the node's mean encoded payload size per power
// sample in this window — the wire-compression figure.
func (ns NodeStats) WireBytesPerSample() float64 {
	if ns.Samples == 0 {
		return 0
	}
	return float64(ns.WireBytes) / float64(ns.Samples)
}

// StreamStats aggregates one Stream call across the fleet.
type StreamStats struct {
	Nodes   int
	Samples int
	Batches int
	Bytes   int64
	// WireBytes is the fleet-wide encoded power-batch payload total; with
	// Samples it yields the wire bytes/sample the codec achieves.
	WireBytes int64
	// ClientBufReuses sums the member clients' pooled-buffer reuse
	// counters over this window (encode buffers on the publish path).
	ClientBufReuses int64
	// Wall is the wall-clock time of the whole fan-out: publish through
	// confirmed delivery of the slowest node.
	Wall    time.Duration
	PerNode []NodeStats
	// Faults sums the per-node injected-fault deltas for this window
	// (all zero without fault injection); Restarts counts gateway
	// crash/reconnect cycles across the fleet.
	Faults   chaos.Counters
	Restarts int
}

// WireBytesPerSample is the fleet-wide mean encoded payload size per
// power sample in this window.
func (st StreamStats) WireBytesPerSample() float64 {
	if st.Samples == 0 {
		return 0
	}
	return float64(st.WireBytes) / float64(st.Samples)
}

// Stream replays [t0, t1) of every node signal through the fleet's
// gateways over the shared broker, at most Workers nodes publishing at
// once. If agg is non-nil, Stream then blocks, node by node, until the
// aggregator has ingested exactly the samples each gateway published
// (event-driven, no polling); a node whose delivery wait times out is
// reported with Delivered=false rather than failing the stream, matching
// lossy QoS-0 semantics. Cancelling ctx aborts the fan-out with an
// error; a ctx *deadline* only bounds the delivery waits. Publish errors
// fail the stream. Concurrent Stream calls on one Fleet serialise; the
// concurrency lives in the per-call worker pool.
func (f *Fleet) Stream(ctx context.Context, nodes []NodeStream, t0, t1 float64, agg *telemetry.Aggregator) (StreamStats, error) {
	if err := validateStreams(nodes, t0, t1); err != nil {
		return StreamStats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sorted := append([]NodeStream(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })
	return f.stream(ctx, sorted, t0, t1, agg)
}

// validateStreams rejects a window no fleet can stream: no nodes, an
// empty interval, a node without a signal, or a node listed twice.
func validateStreams(nodes []NodeStream, t0, t1 float64) error {
	if len(nodes) == 0 {
		return errors.New("fleet: no nodes to stream")
	}
	if t1 <= t0 {
		return errors.New("fleet: empty window")
	}
	seen := make(map[int]struct{}, len(nodes))
	for _, ns := range nodes {
		if ns.Signal == nil {
			return fmt.Errorf("fleet: node %d has no signal", ns.Node)
		}
		if _, dup := seen[ns.Node]; dup {
			// One gateway per node: two workers must never drive the same
			// member (its counters, clock and client are single-flight).
			return fmt.Errorf("fleet: node %d listed twice", ns.Node)
		}
		seen[ns.Node] = struct{}{}
	}
	return nil
}

// stream is Stream past validation, over nodes sorted by ID (PerNode
// keeps that order): Plane.Stream checks the whole node set once — a
// duplicate can straddle a rack boundary, where no single rack fleet
// would see it — and then drives each rack's sorted share here.
func (f *Fleet) stream(ctx context.Context, nodes []NodeStream, t0, t1 float64, agg *telemetry.Aggregator) (StreamStats, error) {
	f.streamMu.Lock()
	defer f.streamMu.Unlock()

	if fm := f.obs.Load(); fm != nil {
		// Size the trace's dense frontiers before any stamp is taken. In
		// a tiered plane the Plane has already ensured the full node
		// range, so this is a no-op there.
		maxNode := 0
		for _, ns := range nodes {
			maxNode = max(maxNode, ns.Node)
		}
		fm.trace.EnsureNodes(maxNode + 1)
	}

	start := time.Now()
	perNode := make([]NodeStats, len(nodes))
	targets := make([]int, len(nodes))
	errs := make([]error, len(nodes))
	tasks := make(chan int, len(nodes))
	for i := range nodes {
		tasks <- i
	}
	close(tasks)
	var wg sync.WaitGroup
	workers := f.workers
	if workers > len(nodes) {
		workers = len(nodes)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				if errors.Is(ctx.Err(), context.Canceled) {
					errs[i] = ctx.Err()
					continue
				}
				perNode[i], targets[i], errs[i] = f.streamOne(nodes[i], t0, t1, agg)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return StreamStats{}, err
	}

	if agg != nil {
		// Every node is on the wire: now confirm delivery, in node order,
		// under one deadline that starts here. Caveat: if a *previous*
		// window on a node timed out with samples still in flight, those
		// stragglers count toward this target and Delivered can report
		// true with this window's tail still pending — once a node times
		// out, treat later windows on the same aggregator as best-effort
		// too.
		waitCtx := ctx
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			waitCtx, cancel = context.WithTimeout(ctx, DefaultWaitTimeout)
			defer cancel()
		}
		for i := range perNode {
			err := agg.WaitSamples(waitCtx, perNode[i].Node, targets[i])
			if errors.Is(err, context.Canceled) {
				// Caller abort, not a lossy-delivery timeout: propagate.
				return StreamStats{}, fmt.Errorf("fleet: node %d: %w", perNode[i].Node, err)
			}
			perNode[i].Delivered = err == nil
		}
	}
	stats := StreamStats{Nodes: len(nodes), Wall: time.Since(start), PerNode: perNode}
	for _, ns := range perNode {
		stats.Samples += ns.Samples
		stats.Batches += ns.Batches
		stats.Bytes += ns.Bytes
		stats.WireBytes += ns.WireBytes
		stats.ClientBufReuses += ns.BufReuses
		stats.Restarts += ns.Restarts
		if ns.Faults != nil {
			stats.Faults.Add(*ns.Faults)
		}
	}
	return stats, nil
}

// StreamLevels replays one window of constant per-node power levels:
// levels[n] is node n's draw in watts over [t0, t1). It is the live
// control plane's per-tick publish — each scheduler tick the cluster's
// current power levels go out through the same gateways, broker and
// aggregator a signal replay uses.
func (f *Fleet) StreamLevels(ctx context.Context, levels []float64, t0, t1 float64, agg *telemetry.Aggregator) (StreamStats, error) {
	return f.Stream(ctx, levelStreams(levels), t0, t1, agg)
}

// levelStreams turns per-node power levels into constant node signals.
func levelStreams(levels []float64) []NodeStream {
	streams := make([]NodeStream, len(levels))
	for n, w := range levels {
		streams[n] = NodeStream{Node: n, Signal: sensor.Const(w)}
	}
	return streams
}

// streamOne publishes one node's window and returns, beside its stats,
// the aggregator sample count that confirms its delivery (zero without
// agg). Under fault injection it recovers injected session crashes
// (teardown, redial, resume from the replay cursor) and corrects the
// target for the samples the chaos link provably lost or duplicated.
func (f *Fleet) streamOne(ns NodeStream, t0, t1 float64, agg *telemetry.Aggregator) (NodeStats, int, error) {
	m, err := f.member(ns.Node)
	if err != nil {
		return NodeStats{}, 0, err
	}
	before := m.gw.Stats()
	restartsBefore := m.restarts
	var faultsBefore chaos.Counters
	if m.link != nil {
		faultsBefore = m.link.Counters()
	}
	// The client can be replaced mid-window by a crash/reconnect, so
	// client-side counters accumulate across sessions.
	var bytesAcc, reusesAcc int64
	bytesBefore := m.client.Stats.PublishBytes.Load()
	reusesBefore := m.client.Stats.BufReuses.Load()
	baseline := 0
	if agg != nil {
		baseline = agg.Samples(ns.Node)
	}

	var cur gateway.Cursor
	var energy float64
	for {
		energy, err = m.gw.PublishWindowResume(ns.Signal, t0, t1, &cur)
		if err == nil {
			// Release any packets the chaos link still holds back, so
			// the delivery wait below cannot strand them.
			if err = m.client.Flush(); err == nil {
				break
			}
		}
		if m.link == nil || !errors.Is(err, chaos.ErrCrash) {
			return NodeStats{}, 0, fmt.Errorf("fleet: node %d: %w", ns.Node, err)
		}
		if m.restarts-restartsBefore >= maxGatewayRestarts {
			return NodeStats{}, 0, fmt.Errorf("fleet: node %d: crash limit (%d restarts) exceeded", ns.Node, maxGatewayRestarts)
		}
		bytesAcc += m.client.Stats.PublishBytes.Load() - bytesBefore
		reusesAcc += m.client.Stats.BufReuses.Load() - reusesBefore
		if rerr := f.restartMember(ns.Node, m); rerr != nil {
			return NodeStats{}, 0, rerr
		}
		bytesBefore, reusesBefore = 0, 0 // fresh client, fresh counters
	}
	after := m.gw.Stats()
	st := NodeStats{
		Node:      ns.Node,
		Samples:   after.Samples - before.Samples,
		Batches:   after.Batches - before.Batches,
		EnergyJ:   energy,
		Bytes:     bytesAcc + m.client.Stats.PublishBytes.Load() - bytesBefore,
		WireBytes: after.WireBytes - before.WireBytes,
		BufReuses: reusesAcc + m.client.Stats.BufReuses.Load() - reusesBefore,
		Restarts:  m.restarts - restartsBefore,
	}
	if fm := f.obs.Load(); fm != nil {
		fm.samples.Add(int64(st.Samples))
		fm.batches.Add(int64(st.Batches))
		fm.wireBytes.Add(st.WireBytes)
		fm.restarts.Add(int64(st.Restarts))
	}
	lostSamples, dupSamples := 0, 0
	if m.link != nil {
		d := m.link.Counters().Minus(faultsBefore)
		st.Faults = &d
		lostSamples = int(d.SamplesLost)
		dupSamples = int(d.SamplesDuplicated)
	}
	if agg == nil {
		return st, 0, nil
	}
	// The target is the aggregator's pre-publish count plus exactly the
	// samples this window put on the wire: an exact, gateway-reported
	// target (no rate*window off-by-one arithmetic) that also holds when
	// a fresh aggregator attaches mid-way through the fleet's life. Under
	// fault injection it is corrected by the exact sample counts the link
	// lost (drops, partitions, corruption) and duplicated, so a lossy
	// window still completes its wait the moment the last surviving batch
	// is ingested — and the post-wait aggregator state is deterministic.
	return st, max(baseline, baseline+st.Samples-lostSamples+dupSamples), nil
}
