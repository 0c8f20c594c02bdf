// Composed chaos: phase-windowed stacks of fault plans. A Composite is
// the one fault schedule the plant takes; a named preset is a composite
// of one always-on phase. A Composite activates each windowed
// constituent Plan only while a packet's *payload* virtual time (the
// batch frame's first sample) falls inside the phase's [T0, T1) window,
// so a scenario can aim a fault burst at exactly the moment the system
// is most fragile (e.g. flapping-gateway active only during a
// demand-response cap ramp). Windowing is keyed off payload time rather
// than wall time: replay runs faster than real time and wall clocks
// would make the fault schedule nondeterministic.
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

	"davide/internal/gateway"
	"davide/internal/mqtt"
	"davide/internal/wire"
)

// Phase is one windowed constituent of a Composite: a fault plan that
// owns packets whose payload time t satisfies T0 <= t < T1. A zero
// window (T0 == T1 == 0) is always on: it claims every QoS-0 packet,
// whether or not its frame header can be read, the way a standalone
// Plan link does.
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

// alwaysOn reports whether the phase has no window.
func (ph Phase) alwaysOn() bool { return ph.T0 == 0 && ph.T1 == 0 }

// claims reports whether the phase owns a packet whose payload time is
// t (timed=false when the frame header cannot be read).
func (ph Phase) claims(t float64, timed bool) bool {
	return ph.alwaysOn() || timed && t >= ph.T0 && t < ph.T1
}

// Composite stacks phase-windowed plans into one fault schedule.
// Packets that no phase claims — outside every window, or with an
// unreadable frame header and no always-on phase — pass through
// untouched and are tallied separately (see CompositeLink.Passthrough),
// never faulted.
type Composite struct {
	Phases []Phase
}

// Validate rejects unusable configuration before any link exists.
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
		if !ph.alwaysOn() && ph.T1 <= ph.T0 {
			return fmt.Errorf("chaos: composite phase %d (%s) window [%g, %g) is empty", i, ph.Name, ph.T0, ph.T1)
		}
	}
	return nil
}

// MaxHoldSpan reports the largest hold-release span any phase can
// apply to the node (0 = no holds) — what reorder-tolerance sizing
// checks against (see core's chaos-safe batch check).
func (c *Composite) MaxHoldSpan(node int) int {
	max := 0
	for _, ph := range c.Phases {
		if s := ph.Plan.SpecFor(node).EffectiveHoldSpan(); s > max {
			max = s
		}
	}
	return max
}

// BuildLink constructs node's deterministic fault link.
func (c *Composite) BuildLink(node int) (*CompositeLink, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cl := &CompositeLink{phases: make([]compPhase, len(c.Phases))}
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
// per-packet fault mutual exclusion compose. It counts the claiming
// phases, then takes the (owned mod count)-th of them, so it allocates
// nothing.
func (cl *CompositeLink) pick(payload []byte) *Link {
	_, oldest, _, timed := gateway.PayloadTickInfo(payload)
	t := wire.ToSec(oldest)
	n := 0
	for i := range cl.phases {
		if cl.phases[i].phase.claims(t, timed) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	cl.mu.Lock()
	k := int(cl.owned % int64(n))
	cl.owned++
	cl.mu.Unlock()
	for i := range cl.phases {
		if cl.phases[i].phase.claims(t, timed) {
			if k == 0 {
				return cl.phases[i].link
			}
			k--
		}
	}
	panic("unreachable")
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

// Counters snapshots the exact fault ledger: the component-wise sum of the
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
