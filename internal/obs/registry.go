// Package obs is the plane's meta-monitoring fabric (DESIGN.md §9): a
// sharded registry of named counters, gauges, and log-bucketed latency
// histograms that every pipeline subsystem publishes into, with
// deterministic ordered snapshots and Prometheus-text exposition.
// core.SelfIngest writes snapshots into a tsdb of their own.
//
// Hot paths never touch the registry: callers resolve a *Counter /
// *Gauge / *Histogram once at wiring time and then mutate lock-free
// atomics. Existing subsystem counters (BrokerStats, BridgeStats, store
// Stats, ...) are bridged in as func-backed metrics read only at
// snapshot time, so migration costs the hot paths nothing.
//
// Determinism contract: metrics whose values depend on goroutine
// scheduling rather than the seed (buffer-pool reuse counts, queue
// high-water marks, wall-clock rates) are registered Volatile. A
// snapshot that excludes volatile metrics is bit-identical between two
// same-seed replays, which the core property test pins under -race.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"davide/internal/stats"
)

// Kind distinguishes the metric families the registry holds.
type Kind uint8

// Metric kinds, matching the Prometheus exposition TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomically settable float64.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// metric is one registered series.
type metric struct {
	name     string
	kind     Kind
	volatile bool
	scale    float64 // histogram bound multiplier at exposition time
	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
	fn       func() float64 // func-backed counter/gauge; nil for owned
}

// value reads the scalar value of a counter or gauge metric.
func (m *metric) value() float64 {
	switch {
	case m.fn != nil:
		return m.fn()
	case m.kind == KindCounter:
		return float64(m.counter.Load())
	default:
		return m.gauge.Load()
	}
}

// Option configures a metric at registration time.
type Option func(*metric)

// Volatile marks the metric as scheduling-dependent: included in the
// full snapshot and exposition but excluded from deterministic
// snapshots (buffer reuse counts, high-water marks, wall-clock rates).
func Volatile() Option { return func(m *metric) { m.volatile = true } }

// Scale sets the multiplier applied to a histogram's bucket bounds and
// sum at exposition time — e.g. 1/wire.TickHz renders tick-valued
// observations in seconds.
func Scale(s float64) Option { return func(m *metric) { m.scale = s } }

const regShards = 16

type regShard struct {
	mu sync.RWMutex
	m  map[string]*metric
}

// Registry is a sharded, get-or-create metric registry. The zero value
// is not usable; call NewRegistry.
type Registry struct {
	shards [regShards]regShard
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].m = make(map[string]*metric)
	}
	return r
}

func (r *Registry) shard(name string) *regShard {
	// FNV-1a over the name; only registration and snapshots hash.
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return &r.shards[h%regShards]
}

// register get-or-creates a metric slot. Re-registering an existing
// name returns the existing slot (func-backed metrics refresh their
// closure so a rebuilt subsystem re-points the series at itself);
// registering the same name with a different kind panics — that is a
// wiring bug, not a runtime condition.
func (r *Registry) register(name string, kind Kind, fn func() float64, opts ...Option) *metric {
	sh := r.shard(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if m, ok := sh.m[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: %q re-registered as %v, was %v", name, kind, m.kind))
		}
		if fn != nil {
			m.fn = fn
		}
		return m
	}
	m := &metric{name: name, kind: kind, scale: 1, fn: fn}
	switch kind {
	case KindCounter:
		if fn == nil {
			m.counter = &Counter{}
		}
	case KindGauge:
		if fn == nil {
			m.gauge = &Gauge{}
		}
	case KindHistogram:
		m.hist = &Histogram{}
	}
	for _, o := range opts {
		o(m)
	}
	sh.m[name] = m
	return m
}

// CounterOf get-or-creates an owned counter.
func (r *Registry) CounterOf(name string, opts ...Option) *Counter {
	return r.register(name, KindCounter, nil, opts...).counter
}

// GaugeOf get-or-creates an owned gauge.
func (r *Registry) GaugeOf(name string, opts ...Option) *Gauge {
	return r.register(name, KindGauge, nil, opts...).gauge
}

// HistogramOf get-or-creates an owned log-bucketed histogram.
func (r *Registry) HistogramOf(name string, opts ...Option) *Histogram {
	return r.register(name, KindHistogram, nil, opts...).hist
}

// CounterFunc registers a counter whose value is read from fn at
// snapshot time — the migration bridge for subsystems that already keep
// their own atomic counters behind stable accessor APIs.
func (r *Registry) CounterFunc(name string, fn func() float64, opts ...Option) {
	r.register(name, KindCounter, fn, opts...)
}

// GaugeFunc registers a gauge read from fn at snapshot time.
func (r *Registry) GaugeFunc(name string, fn func() float64, opts ...Option) {
	r.register(name, KindGauge, fn, opts...)
}

// Key builds a Prometheus-style series key from a metric name and
// label key/value pairs: Key("x_total", "rack", "r00") returns
// `x_total{rack="r00"}`. Label order is preserved; callers pass a
// stable order so keys stay deterministic.
func Key(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", kv[i], kv[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// Metric is one series in a snapshot.
type Metric struct {
	Name     string // full series key, labels included
	Kind     Kind
	Volatile bool
	Value    float64             // counter/gauge value
	Hist     *stats.LogHistogram // histogram contents (nil otherwise)
	Scale    float64             // histogram bound multiplier
}

// Snapshot returns every registered series sorted by name. With
// includeVolatile false, scheduling-dependent series are dropped and
// the result is bit-reproducible across same-seed replays.
func (r *Registry) Snapshot(includeVolatile bool) []Metric {
	var out []Metric
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, m := range sh.m {
			if m.volatile && !includeVolatile {
				continue
			}
			s := Metric{Name: m.name, Kind: m.kind, Volatile: m.volatile, Scale: m.scale}
			if m.kind == KindHistogram {
				s.Hist = m.hist.Snapshot()
			} else {
				s.Value = m.value()
			}
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
