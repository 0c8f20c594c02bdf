package capping

import (
	"errors"
	"testing"

	"davide/internal/node"
	"davide/internal/simclock"
	"davide/internal/units"
)

// ControlLoop runs a NodeCapper periodically on the discrete-event engine:
// the virtual-time equivalent of the firmware control task that enforces
// the node power cap. It also advances the node's thermal model each
// period, so capping and thermal throttling interact the way they do on
// hardware. No program runs it; the tests below drive NodeCapper through
// it.
type ControlLoop struct {
	cancel func()
	trace  []units.Watt
	times  []float64
}

// NewControlLoop registers the capper on the engine with the given control
// period (seconds of virtual time), observing node power directly.
func NewControlLoop(eng *simclock.Engine, capper *NodeCapper, period float64) (*ControlLoop, error) {
	if eng == nil {
		return nil, errors.New("capping: nil engine")
	}
	if capper == nil {
		return nil, errors.New("capping: nil capper")
	}
	if period <= 0 {
		return nil, errors.New("capping: period must be positive")
	}
	cl := &ControlLoop{}
	cancel, err := eng.Every(period, period, func(now float64) {
		if _, err := capper.Node.AdvanceThermal(period); err != nil {
			return
		}
		p, err := capper.Step()
		if err != nil {
			return
		}
		cl.trace = append(cl.trace, p)
		cl.times = append(cl.times, now)
	})
	if err != nil {
		return nil, err
	}
	cl.cancel = cancel
	return cl, nil
}

// Stop cancels the periodic control task.
func (cl *ControlLoop) Stop() {
	if cl.cancel != nil {
		cl.cancel()
	}
}

// Trace returns the observed power at each control step.
func (cl *ControlLoop) Trace() []units.Watt { return append([]units.Watt(nil), cl.trace...) }

// Times returns the virtual timestamps of the control steps.
func (cl *ControlLoop) Times() []float64 { return append([]float64(nil), cl.times...) }

// RunCappedPhases runs a node through load phases (duration, load) on a
// fresh engine with a capping control loop and returns the tracking
// analysis: whether the cap holds across load transitions.
func RunCappedPhases(n *node.Node, cap units.Watt, period float64, phases []struct{ Duration, Load float64 }) (TrackingError, error) {
	if len(phases) == 0 {
		return TrackingError{}, errors.New("capping: no phases")
	}
	eng := simclock.New()
	capper, err := NewNodeCapper(n)
	if err != nil {
		return TrackingError{}, err
	}
	if cap > 0 {
		if err := capper.SetCap(cap); err != nil {
			return TrackingError{}, err
		}
	}
	loop, err := NewControlLoop(eng, capper, period)
	if err != nil {
		return TrackingError{}, err
	}
	t := 0.0
	for _, ph := range phases {
		if ph.Duration <= 0 {
			return TrackingError{}, errors.New("capping: non-positive phase duration")
		}
		ph := ph
		if _, err := eng.At(t, func(float64) { n.SetLoad(ph.Load) }); err != nil {
			return TrackingError{}, err
		}
		t += ph.Duration
	}
	if err := eng.RunUntil(t); err != nil {
		return TrackingError{}, err
	}
	loop.Stop()
	return Analyze(loop.Trace(), cap)
}

func TestNewControlLoopValidation(t *testing.T) {
	eng := simclock.New()
	c := newCapper(t)
	if _, err := NewControlLoop(nil, c, 1); err == nil {
		t.Error("nil engine should error")
	}
	if _, err := NewControlLoop(eng, nil, 1); err == nil {
		t.Error("nil capper should error")
	}
	if _, err := NewControlLoop(eng, c, 0); err == nil {
		t.Error("zero period should error")
	}
}

func TestControlLoopStepsOnEngine(t *testing.T) {
	eng := simclock.New()
	c := newCapper(t)
	c.Node.SetLoad(1)
	if err := c.SetCap(1500); err != nil {
		t.Fatal(err)
	}
	loop, err := NewControlLoop(eng, c, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	trace := loop.Trace()
	if len(trace) != 60 {
		t.Fatalf("control steps = %d, want 60", len(trace))
	}
	times := loop.Times()
	if times[0] != 1 || times[59] != 60 {
		t.Errorf("times = [%v..%v]", times[0], times[59])
	}
	if c.Node.Power() > 1500 {
		t.Errorf("power %v above cap after loop", c.Node.Power())
	}
	// After Stop, no further steps accumulate.
	loop.Stop()
	if err := eng.RunUntil(80); err != nil {
		t.Fatal(err)
	}
	if len(loop.Trace()) != 60 {
		t.Errorf("steps after Stop = %d", len(loop.Trace()))
	}
}

func TestControlLoopIntegratesThermal(t *testing.T) {
	// An air-cooled node at a hot inlet must heat up across control
	// periods and eventually throttle, because the loop advances the
	// thermal model.
	cfg := node.DefaultConfig()
	cfg.Cooling = node.Air
	cfg.CoolantTemp = 38
	n, err := node.New(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.SetLoad(1)
	capper, err := NewNodeCapper(n)
	if err != nil {
		t.Fatal(err)
	}
	eng := simclock.New()
	if _, err := NewControlLoop(eng, capper, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(1500); err != nil {
		t.Fatal(err)
	}
	throttled := false
	for _, s := range n.Sockets {
		if s.Throttled() {
			throttled = true
		}
	}
	for _, g := range n.GPUs {
		if g.Throttled() {
			throttled = true
		}
	}
	if !throttled {
		t.Error("hot air-cooled node should have throttled during the loop")
	}
}

func TestRunCappedPhases(t *testing.T) {
	n, err := node.New(0, node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	phases := []struct{ Duration, Load float64 }{
		{60, 1.0}, {60, 0.2}, {60, 1.0},
	}
	te, err := RunCappedPhases(n, 1400, 1.0, phases)
	if err != nil {
		t.Fatal(err)
	}
	if te.Steps != 180 {
		t.Errorf("steps = %d, want 180", te.Steps)
	}
	// The controller violates briefly after each upward load transition,
	// then recovers: violations exist but are a small share of steps.
	if te.Violations == 0 {
		t.Error("load transitions should cause transient violations")
	}
	if te.Violations > te.Steps/3 {
		t.Errorf("violations = %d of %d, controller not converging", te.Violations, te.Steps)
	}
	if te.MaxPowerW <= 1400 {
		t.Error("transient peak should exceed the cap")
	}
}

func TestRunCappedPhasesValidation(t *testing.T) {
	n, err := node.New(0, node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCappedPhases(n, 1400, 1, nil); err == nil {
		t.Error("no phases should error")
	}
	bad := []struct{ Duration, Load float64 }{{0, 1}}
	if _, err := RunCappedPhases(n, 1400, 1, bad); err == nil {
		t.Error("zero-duration phase should error")
	}
	if _, err := RunCappedPhases(n, 100, 1, bad); err == nil {
		t.Error("cap below idle should error")
	}
}
