package fleet

import (
	"sync/atomic"

	"davide/internal/mqtt"
	"davide/internal/obs"
	"davide/internal/tsdb"
)

// fleetMetrics is one fleet's slice of an obs registry: per-rack totals
// the workers bump with their per-window NodeStats deltas, plus the
// stage trace every member gateway stamps its encode point into.
type fleetMetrics struct {
	trace     *obs.StageTrace
	samples   *obs.Counter
	batches   *obs.Counter
	wireBytes *obs.Counter
	restarts  *obs.Counter
}

// AttachObs points the fleet at a registry. rack labels this fleet's
// counters (obs.RackLabel(r) in a plane, "r00" standalone); trace, when
// non-nil, receives a StageEncode stamp from every gateway publish.
// Existing members are re-pointed; future members pick the trace up at
// assembly. Call before streaming — attaching mid-window splits that
// window's counts across registries.
func (f *Fleet) AttachObs(reg *obs.Registry, rack string, trace *obs.StageTrace) {
	fm := &fleetMetrics{
		trace:     trace,
		samples:   reg.CounterOf(obs.Key("davide_fleet_samples_total", "rack", rack)),
		batches:   reg.CounterOf(obs.Key("davide_fleet_batches_total", "rack", rack)),
		wireBytes: reg.CounterOf(obs.Key("davide_fleet_wire_bytes_total", "rack", rack)),
		restarts:  reg.CounterOf(obs.Key("davide_fleet_restarts_total", "rack", rack)),
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.obs.Store(fm)
	for _, m := range f.members {
		m.gw.Trace = trace
	}
}

// The plane bridges the pipeline's pre-existing counter surfaces into
// its registry as func-backed metrics: the subsystems keep their accessor
// APIs and hot-path atomics untouched, and the registry reads them only
// at snapshot time.

// registerBroker publishes a broker's counters under the given broker
// label. Buffer-pool reuse and live-connection counts depend on
// goroutine scheduling, so they are registered volatile — as are the
// raw byte totals, which include control-packet bytes whose teardown
// timing (DISCONNECTs racing session close) is not deterministic; the
// deterministic wire-volume series is davide_fleet_wire_bytes_total.
func registerBroker(reg *obs.Registry, name string, b *mqtt.Broker) {
	st := &b.Stats
	c := func(metric string, v *atomic.Int64, opts ...obs.Option) {
		reg.CounterFunc(obs.Key(metric, "broker", name),
			func() float64 { return float64(v.Load()) }, opts...)
	}
	c("davide_broker_connects_total", &st.TotalConnects)
	c("davide_broker_publishes_in_total", &st.PublishesIn)
	c("davide_broker_publishes_out_total", &st.PublishesOut)
	c("davide_broker_bytes_in_total", &st.BytesIn, obs.Volatile())
	c("davide_broker_bytes_out_total", &st.BytesOut, obs.Volatile())
	c("davide_broker_dropped_total", &st.Dropped)
	c("davide_broker_fanout_encoded_once_total", &st.FanoutEncodedOnce)
	c("davide_broker_buf_reuses_total", &st.BufReuses, obs.Volatile())
	reg.GaugeFunc(obs.Key("davide_broker_connections", "broker", name),
		func() float64 { return float64(st.Connections.Load()) }, obs.Volatile())
}

// registerBridge publishes a bridge's counters under the given bridge
// label. The queue high-water mark is a scheduling artifact and is
// registered volatile.
func registerBridge(reg *obs.Registry, name string, b *mqtt.Bridge) {
	c := func(metric string, sel func(mqtt.BridgeStats) int64, opts ...obs.Option) {
		reg.CounterFunc(obs.Key(metric, "bridge", name),
			func() float64 { return float64(sel(b.Stats())) }, opts...)
	}
	c("davide_bridge_forwarded_total", func(s mqtt.BridgeStats) int64 { return s.Forwarded })
	c("davide_bridge_forwarded_bytes_total", func(s mqtt.BridgeStats) int64 { return s.ForwardedBytes })
	c("davide_bridge_dropped_total", func(s mqtt.BridgeStats) int64 { return s.Dropped })
	c("davide_bridge_retries_total", func(s mqtt.BridgeStats) int64 { return s.Retries })
	c("davide_bridge_uplink_redials_total", func(s mqtt.BridgeStats) int64 { return s.UplinkRedials })
	c("davide_bridge_source_redials_total", func(s mqtt.BridgeStats) int64 { return s.SourceRedials })
	reg.GaugeFunc(obs.Key("davide_bridge_queue_high_water", "bridge", name),
		func() float64 { return float64(b.Stats().HighWater) }, obs.Volatile())
}

// registerStore publishes a telemetry store's size and integrity
// counters. Each func pays one Stats() walk at snapshot time only.
func registerStore(reg *obs.Registry, db *tsdb.DB) {
	g := func(metric string, sel func(tsdb.Stats) float64, opts ...obs.Option) {
		reg.GaugeFunc(metric, func() float64 { return sel(db.Stats()) }, opts...)
	}
	g("davide_store_nodes", func(s tsdb.Stats) float64 { return float64(s.Nodes) })
	g("davide_store_samples", func(s tsdb.Stats) float64 { return float64(s.Samples) })
	g("davide_store_chunks", func(s tsdb.Stats) float64 { return float64(s.Chunks) })
	g("davide_store_compressed_bytes", func(s tsdb.Stats) float64 { return float64(s.CompressedBytes) })
	g("davide_store_head_bytes", func(s tsdb.Stats) float64 { return float64(s.HeadBytes) })
	g("davide_store_rollup_bytes", func(s tsdb.Stats) float64 { return float64(s.RollupBytes) })
	g("davide_store_out_of_order_dropped", func(s tsdb.Stats) float64 { return float64(s.OutOfOrderDropped) })
	g("davide_store_duplicates", func(s tsdb.Stats) float64 { return float64(s.Duplicates) })
}
