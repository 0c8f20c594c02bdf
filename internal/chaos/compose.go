// Composed chaos: phase-windowed stacks of fault plans. A Composite
// activates each constituent Plan only while a packet's *payload*
// virtual time falls inside the phase's [T0, T1) window, so a scenario
// can aim a fault burst at exactly the moment the system is most
// fragile (e.g. flapping-gateway active only during a demand-response
// cap ramp). Windowing is keyed off payload time rather than wall
// time: replay runs faster than real time and wall clocks would make
// the fault schedule nondeterministic.
//
// Per-packet fault mutual exclusion is preserved structurally: every
// QoS-0 packet is routed to at most ONE constituent link (the owner),
// which applies at most one fault to it, exactly as a standalone Link
// would. With disjoint windows each constituent sees precisely the
// packet subsequence its window covers — so a composite's per-phase
// ledgers equal what each plan would have produced standing alone
// against that subsequence, and the composite ledger is their exact
// sum. The compose property test pins both invariants.
package chaos

import (
	"errors"
	"fmt"
	"sync"

	"davide/internal/mqtt"
)

// FaultLink is the per-link surface transport layers consume: the
// mqtt.Link interceptor plus the ledger and payload-metadata hooks
// internal/fleet wires up. *Link and *CompositeLink implement it.
type FaultLink interface {
	mqtt.Link
	// SetSizer installs the payload→sample-count reader that fills the
	// Samples* ledger fields.
	SetSizer(f func(payload []byte) int)
	// Counters snapshots the link's exact fault ledger.
	Counters() Counters
	// HeldCount reports packets currently held back for reordering.
	HeldCount() int
}

// Planner builds per-node fault links: the plan-level abstraction
// fleet.GatewaySpec.Faults and fleet.PlaneSpec.BridgeFaults accept.
// *Plan is the single-schedule implementation; *Composite stacks
// phase-windowed plans.
type Planner interface {
	// Validate rejects unusable configuration before any link exists.
	Validate() error
	// BuildLink constructs node's deterministic fault link.
	BuildLink(node int) (FaultLink, error)
	// MaxHoldSpan reports the largest hold-release span any spec can
	// apply to the node (0 = no holds) — what reorder-tolerance sizing
	// checks against (see core's chaos-safe batch check).
	MaxHoldSpan(node int) int
}

// BuildLink implements Planner for a single Plan.
func (p *Plan) BuildLink(node int) (FaultLink, error) {
	l, err := p.NewLink(node)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// MaxHoldSpan implements Planner for a single Plan.
func (p *Plan) MaxHoldSpan(node int) int {
	return p.SpecFor(node).EffectiveHoldSpan()
}

// Phase is one windowed constituent of a Composite: a fault plan that
// owns packets whose payload time t satisfies T0 <= t < T1. A zero
// window (T0 == T1 == 0) is active for the whole run.
type Phase struct {
	// Name labels the phase in per-phase ledgers and reports.
	Name string
	// Plan is the phase's fault schedule. Per-node link seeds derive
	// from Plan.Seed exactly as a standalone plan's would, so a
	// disjoint-windowed phase reproduces the standalone fault sequence
	// over its packet subsequence bit for bit.
	Plan *Plan
	// T0/T1 bound the payload-time window [T0, T1) in seconds.
	T0, T1 float64
}

// activeAt reports whether payload time t falls in the phase window.
func (ph Phase) activeAt(t float64) bool {
	if ph.T0 == 0 && ph.T1 == 0 {
		return true
	}
	return t >= ph.T0 && t < ph.T1
}

// Composite stacks phase-windowed plans into one Planner. Packets
// whose payload time no phase claims — or whose time TimeOf cannot
// read — pass through untouched and are tallied separately (see
// CompositeLink.Passthrough), never faulted.
type Composite struct {
	Phases []Phase
	// TimeOf extracts a payload's virtual time in seconds (ok=false
	// when the payload carries none, e.g. non-batch traffic).
	// fleet.ChaosStack sets the gateway batch-header reader; tests
	// inject synthetic clocks. A Composite without one passes every
	// packet through.
	TimeOf func(payload []byte) (float64, bool)
}

// Validate implements Planner.
func (c *Composite) Validate() error {
	if c == nil {
		return nil
	}
	if len(c.Phases) == 0 {
		return errors.New("chaos: composite with no phases")
	}
	for i, ph := range c.Phases {
		if ph.Plan == nil {
			return fmt.Errorf("chaos: composite phase %d (%s) has no plan", i, ph.Name)
		}
		if err := ph.Plan.Validate(); err != nil {
			return fmt.Errorf("chaos: composite phase %d (%s): %w", i, ph.Name, err)
		}
		if ph.T0 < 0 || ph.T1 < 0 {
			return fmt.Errorf("chaos: composite phase %d (%s) has a negative window bound", i, ph.Name)
		}
		if (ph.T0 != 0 || ph.T1 != 0) && ph.T1 <= ph.T0 {
			return fmt.Errorf("chaos: composite phase %d (%s) window [%g, %g) is empty", i, ph.Name, ph.T0, ph.T1)
		}
	}
	return nil
}

// MaxHoldSpan implements Planner: the widest span any phase can apply.
func (c *Composite) MaxHoldSpan(node int) int {
	max := 0
	for _, ph := range c.Phases {
		if s := ph.Plan.MaxHoldSpan(node); s > max {
			max = s
		}
	}
	return max
}

// BuildLink implements Planner.
func (c *Composite) BuildLink(node int) (FaultLink, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cl := &CompositeLink{timeOf: c.TimeOf, phases: make([]compPhase, len(c.Phases))}
	for i, ph := range c.Phases {
		sub, err := ph.Plan.NewLink(node)
		if err != nil {
			return nil, fmt.Errorf("chaos: composite phase %d (%s): %w", i, ph.Name, err)
		}
		cl.phases[i] = compPhase{phase: ph, link: sub}
	}
	return cl, nil
}

// compPhase pairs a phase window with its node-local sub-link.
type compPhase struct {
	phase Phase
	link  *Link
}

// CompositeLink routes each QoS-0 packet to the single phase sub-link
// that owns its payload time. Overlapping windows share custody by
// round-robin over the owned-packet sequence (deterministic: the
// single-publisher contract fixes per-link publish order), so mutual
// exclusion holds even when phases overlap.
type CompositeLink struct {
	timeOf func(payload []byte) (float64, bool)
	phases []compPhase

	mu    sync.Mutex
	owned int64 // packets claimed by some phase (round-robin cursor)
	pass  int64 // QoS-0 packets no phase claimed, delivered untouched
}

// Send implements mqtt.Link.
func (cl *CompositeLink) Send(m mqtt.Message, deliver mqtt.DeliverFunc) error {
	if m.QoS != 0 {
		return deliver(m)
	}
	owner := cl.pick(m.Payload)
	if owner == nil {
		cl.mu.Lock()
		cl.pass++
		cl.mu.Unlock()
		return deliver(m)
	}
	return owner.Send(m, deliver)
}

// pick selects the owning sub-link for a payload, or nil when the
// packet passes through. Exactly one owner per packet is what makes
// per-packet fault mutual exclusion compose.
func (cl *CompositeLink) pick(payload []byte) *Link {
	if cl.timeOf == nil {
		return nil
	}
	t, ok := cl.timeOf(payload)
	if !ok {
		return nil
	}
	var active []*Link
	for i := range cl.phases {
		if cl.phases[i].phase.activeAt(t) {
			active = append(active, cl.phases[i].link)
		}
	}
	if len(active) == 0 {
		return nil
	}
	cl.mu.Lock()
	owner := active[int(cl.owned)%len(active)]
	cl.owned++
	cl.mu.Unlock()
	return owner
}

// Flush implements mqtt.Link: every phase releases its held packets,
// in phase order.
func (cl *CompositeLink) Flush(deliver mqtt.DeliverFunc) error {
	for i := range cl.phases {
		if err := cl.phases[i].link.Flush(deliver); err != nil {
			return err
		}
	}
	return nil
}

// SetSizer implements FaultLink by propagating to every sub-link.
func (cl *CompositeLink) SetSizer(f func(payload []byte) int) {
	for i := range cl.phases {
		cl.phases[i].link.SetSizer(f)
	}
}

// Counters implements FaultLink: the exact component-wise sum of the
// constituent ledgers. Packets no phase claimed are NOT folded in —
// they appear only in Passthrough — so the composite ledger always
// equals the sum of its constituents' ledgers by construction, and
// the property test can assert it against standalone runs.
func (cl *CompositeLink) Counters() Counters {
	var sum Counters
	for i := range cl.phases {
		sum.Add(cl.phases[i].link.Counters())
	}
	return sum
}

// PhaseCounters snapshots each phase's own ledger, in phase order.
func (cl *CompositeLink) PhaseCounters() []Counters {
	out := make([]Counters, len(cl.phases))
	for i := range cl.phases {
		out[i] = cl.phases[i].link.Counters()
	}
	return out
}

// Passthrough reports QoS-0 packets delivered untouched because no
// phase claimed them (out-of-window or unreadable payload time).
func (cl *CompositeLink) Passthrough() int64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.pass
}

// HeldCount implements FaultLink: total packets held across phases.
func (cl *CompositeLink) HeldCount() int {
	n := 0
	for i := range cl.phases {
		n += cl.phases[i].link.HeldCount()
	}
	return n
}
