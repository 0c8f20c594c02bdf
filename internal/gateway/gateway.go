// Package gateway implements the D.A.V.I.D.E. energy and power gateway
// (EG) of §III-A1: the BeagleBone-Black-class device attached to each
// node's power backplane. The gateway samples the node power signal
// through its ADC chain (800 kS/s hardware-averaged to 50 kS/s), stamps
// every sample with its PTP-disciplined clock, and publishes batches over
// MQTT using a topic/subscriber layout, so that any number of agents —
// per-job aggregators, profilers, the scheduler plugin — can consume the
// stream without touching the compute node (out-of-band monitoring).
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"

	"davide/internal/monitors"
	"davide/internal/mqtt"
	"davide/internal/obs"
	"davide/internal/ptp"
	"davide/internal/sensor"
	"davide/internal/wire"
)

// TopicPrefix is the root of the telemetry topic tree.
const TopicPrefix = "davide"

// PowerTopic returns the power-stream topic for a node.
func PowerTopic(nodeID int) string {
	return fmt.Sprintf("%s/node%02d/power", TopicPrefix, nodeID)
}

// EnergyTopic returns the per-window energy summary topic for a node
// (see EnergySummary); no gateway publishes on it.
func EnergyTopic(nodeID int) string {
	return fmt.Sprintf("%s/node%02d/energy", TopicPrefix, nodeID)
}

// Batch is one published window of power samples. On the wire it is a
// binary frame (codec.go); the json tags name the text layout that E17
// measures the frame against.
type Batch struct {
	Node    int       `json:"node"`
	T0      float64   `json:"t0"` // gateway-clock timestamp of Samples[0]
	Dt      float64   `json:"dt"` // sample spacing, seconds
	Samples []float64 `json:"p"`  // watts
}

// Validate reports whether the batch is well-formed: a node ID, a
// positive finite spacing and at least one sample, every one finite. It
// is the decoder's trust boundary — one NaN or Inf watt reaching the
// store would poison that node's rollup buckets for good.
func (b Batch) Validate() error {
	switch {
	case b.Node < 0:
		return errors.New("gateway: negative node ID")
	case !(b.Dt > 0 && finite(b.Dt)):
		return errors.New("gateway: sample spacing not positive and finite")
	case len(b.Samples) == 0:
		return errors.New("gateway: empty batch")
	}
	for i, s := range b.Samples {
		if !finite(s) {
			return fmt.Errorf("gateway: sample %d is not finite", i)
		}
	}
	return nil
}

// finite reports whether x is neither NaN nor an infinity.
func finite(x float64) bool { return x-x == 0 }

// EnergySummary is a per-window energy record. The gateway no longer
// publishes it; its only remaining user is the benchmark's per-layer
// model of the gateway window.
type EnergySummary struct {
	Node   int     `json:"node"`
	T0     float64 `json:"t0"`
	T1     float64 `json:"t1"`
	Joules float64 `json:"j"`
	MeanW  float64 `json:"mean_w"`
}

// Encode serialises the summary.
func (e EnergySummary) Encode() ([]byte, error) { return json.Marshal(e) }

// Publisher abstracts the MQTT client so gateways can be tested without a
// broker and wired to the real client in production.
//
// Ownership: payload is only valid for the duration of the call — the
// gateway reuses its encode buffer across batches, and the MQTT client
// copies the payload into the outgoing packet before returning.
// Implementations that retain the payload must copy it.
type Publisher interface {
	Publish(topic string, payload []byte, qos byte, retain bool) error
}

// ClientPublisher adapts *mqtt.Client to Publisher.
type ClientPublisher struct{ C *mqtt.Client }

// Publish implements Publisher.
func (p ClientPublisher) Publish(topic string, payload []byte, qos byte, retain bool) error {
	return p.C.Publish(topic, payload, qos, retain)
}

// Gateway is one node's energy gateway.
type Gateway struct {
	NodeID int
	// Monitor is the sampling chain (normally the EG class).
	Monitor *monitors.Monitor
	// Clock is the PTP-disciplined gateway clock used for timestamps.
	Clock *ptp.Clock
	// Pub delivers encoded batches to the telemetry plane.
	Pub Publisher
	// BatchSamples is the number of samples per published batch.
	BatchSamples int
	// Trace, when set, stamps every published batch at the encode stage
	// of the obs stage trace (DESIGN.md §9).
	Trace *obs.StageTrace

	published int
	samples   int
	energyJ   float64
	wireBytes int64

	// Reused across batches so steady-state publishing is allocation-free
	// (see the Publisher ownership contract).
	encBuf    []byte
	sampleBuf []float64
	// topic is PowerTopic(topicNode), formatted once, not per window.
	topic     string
	topicNode int
}

// Stats summarises a gateway's cumulative publishing activity.
type Stats struct {
	Batches   int     // power batches published
	Samples   int     // power samples published
	EnergyJ   float64 // sum of the per-window energy estimates
	WireBytes int64   // encoded power-batch payload bytes put on the wire
}

// WireBytesPerSample is the mean encoded payload size per power sample —
// the wire-compression figure the binary batch frame controls.
func (s Stats) WireBytesPerSample() float64 {
	if s.Samples == 0 {
		return 0
	}
	return float64(s.WireBytes) / float64(s.Samples)
}

// New creates a gateway.
func New(nodeID int, mon *monitors.Monitor, clock *ptp.Clock, pub Publisher, batchSamples int) (*Gateway, error) {
	switch {
	case nodeID < 0:
		return nil, errors.New("gateway: negative node ID")
	case mon == nil:
		return nil, errors.New("gateway: nil monitor")
	case clock == nil:
		return nil, errors.New("gateway: nil clock")
	case pub == nil:
		return nil, errors.New("gateway: nil publisher")
	case batchSamples <= 0:
		return nil, errors.New("gateway: batch size must be positive")
	}
	return &Gateway{NodeID: nodeID, Monitor: mon, Clock: clock, Pub: pub, BatchSamples: batchSamples}, nil
}

// Published returns the number of batches published.
func (g *Gateway) Published() int { return g.published }

// SampleCount returns the number of samples published.
func (g *Gateway) SampleCount() int { return g.samples }

// Stats returns the gateway's cumulative publishing statistics.
func (g *Gateway) Stats() Stats {
	return Stats{Batches: g.published, Samples: g.samples, EnergyJ: g.energyJ, WireBytes: g.wireBytes}
}

// PublishWindow samples the signal over global time [t0, t1), stamps the
// samples with the gateway clock and publishes the power batches at QoS 0
// (streaming data, loss-tolerant). Returns the gateway's own energy
// estimate for the window, which is not published.
func (g *Gateway) PublishWindow(sig sensor.Signal, t0, t1 float64) (float64, error) {
	var cur Cursor
	return g.PublishWindowResume(sig, t0, t1, &cur)
}

// Cursor tracks one window replay's position so a crashed gateway
// resumes from the first unacknowledged batch instead of restarting the
// window. The first PublishWindowResume call fills it (the window is
// observed and clock-stamped exactly once, so a resume republishes the
// same stamped batches — no re-sampling); a publish failure leaves the
// cursor pointing at the batch that failed, and the failed batch is
// re-sent on the next call (at-least-once: the aggregator overwrites
// exact duplicate timestamps, so a redelivered batch cannot corrupt
// energy integrals).
type Cursor struct {
	samples    []sensor.Sample
	clockShift float64
	dt         float64
	next       int // index of the first unpublished sample
	energyJ    float64
	done       bool
}

// Started reports whether the cursor's window has been observed yet.
func (c *Cursor) Started() bool { return c.samples != nil }

// Done reports whether every batch of the window has been published.
func (c *Cursor) Done() bool { return c.done }

// Remaining returns how many samples are still unpublished.
func (c *Cursor) Remaining() int { return len(c.samples) - c.next }

// PublishWindowResume is PublishWindow with crash/resume support: on a
// publish error the cursor records the replay position and the call can
// be repeated (typically on a fresh MQTT session) to continue from the
// failed batch. The per-window energy estimate is returned once the
// window completes; repeated calls after completion are no-ops
// returning the same energy.
func (g *Gateway) PublishWindowResume(sig sensor.Signal, t0, t1 float64, cur *Cursor) (float64, error) {
	if cur == nil {
		return 0, errors.New("gateway: nil cursor")
	}
	if cur.done {
		return cur.energyJ, nil
	}
	if !cur.Started() {
		if err := sensor.CheckWindow(t0, t1); err != nil {
			return 0, err
		}
		if t1 == t0 {
			return 0, errors.New("gateway: empty window")
		}
		samples, err := g.Monitor.Observe(sig, t0, t1)
		if err != nil {
			return 0, err
		}
		if len(samples) < 2 {
			return 0, errors.New("gateway: window too short for the sampling rate")
		}
		// Stamp with the PTP clock: convert the (already offset-corrected
		// by Observe's model) global window start to gateway time.
		stamp0, err := g.Clock.Read(t0)
		if err != nil {
			return 0, err
		}
		cur.samples = samples
		cur.dt = samples[1].T - samples[0].T
		cur.clockShift = stamp0 - samples[0].T
	}

	topic := g.powerTopic()
	for cur.next < len(cur.samples) {
		start := cur.next
		end := start + g.BatchSamples
		if end > len(cur.samples) {
			end = len(cur.samples)
		}
		b := Batch{Node: g.NodeID, T0: cur.samples[start].T + cur.clockShift, Dt: cur.dt, Samples: g.sampleBuf[:0]}
		for _, s := range cur.samples[start:end] {
			b.Samples = append(b.Samples, s.P)
		}
		g.sampleBuf = b.Samples
		payload, err := b.AppendEncode(g.encBuf[:0], CodecBinary)
		if err != nil {
			return 0, err
		}
		g.encBuf = payload
		if err := g.Pub.Publish(topic, payload, 0, false); err != nil {
			return 0, err
		}
		if g.Trace != nil {
			g.Trace.Stamp(obs.StageEncode, g.NodeID, wire.ToTick(b.T0+float64(len(b.Samples)-1)*b.Dt))
		}
		g.published++
		g.samples += end - start
		g.wireBytes += int64(len(payload))
		cur.next = end
	}

	energy, err := sensor.EnergyFromSamples(cur.samples, t0, t1)
	if err != nil {
		return 0, err
	}
	g.energyJ += energy
	cur.energyJ = energy
	cur.done = true
	return energy, nil
}

// powerTopic returns PowerTopic(g.NodeID), formatted again only when
// NodeID changed since the last call.
func (g *Gateway) powerTopic() string {
	if g.topic == "" || g.topicNode != g.NodeID {
		g.topic, g.topicNode = PowerTopic(g.NodeID), g.NodeID
	}
	return g.topic
}

// OverheadModel quantifies experiment E13: in-band monitoring steals node
// cycles, out-of-band monitoring (the EG) does not.
type OverheadModel struct {
	// PerSampleCPUSec is the node CPU time consumed per sample when
	// monitoring runs in-band (a daemon on the compute cores).
	PerSampleCPUSec float64
}

// DefaultOverheadModel uses 2 µs of node CPU per in-band sample (a read
// of a hwmon sysfs file plus processing).
func DefaultOverheadModel() OverheadModel { return OverheadModel{PerSampleCPUSec: 2e-6} }

// InBandSlowdown returns the fractional application slowdown caused by
// in-band sampling at the given rate on `cores` cores.
func (m OverheadModel) InBandSlowdown(rate float64, cores int) (float64, error) {
	if rate < 0 {
		return 0, errors.New("gateway: negative rate")
	}
	if cores <= 0 {
		return 0, errors.New("gateway: need at least one core")
	}
	// The sampling daemon occupies one core's worth of time slices.
	perCore := rate * m.PerSampleCPUSec
	if perCore > 1 {
		perCore = 1
	}
	return perCore / float64(cores), nil
}

// OutOfBandSlowdown is zero by construction: the EG runs on its own SoC.
func (m OverheadModel) OutOfBandSlowdown() float64 { return 0 }
