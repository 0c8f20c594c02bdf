package capping

import (
	"math"
	"testing"

	"davide/internal/node"
	"davide/internal/units"
)

func newCapper(t *testing.T) *NodeCapper {
	t.Helper()
	n, err := node.New(0, node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewNodeCapper(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewNodeCapperNil(t *testing.T) {
	if _, err := NewNodeCapper(nil); err == nil {
		t.Error("nil node should error")
	}
}

func TestSetCapValidation(t *testing.T) {
	c := newCapper(t)
	if err := c.SetCap(-1); err == nil {
		t.Error("negative cap should error")
	}
	if err := c.SetCap(100); err == nil {
		t.Error("cap below idle power should error")
	}
	if err := c.SetCap(1500); err != nil {
		t.Fatal(err)
	}
	if c.Cap() != 1500 {
		t.Errorf("Cap = %v", c.Cap())
	}
	if err := c.SetCap(0); err != nil {
		t.Fatal(err)
	}
}

func TestUncappedStepIsNoOp(t *testing.T) {
	c := newCapper(t)
	c.Node.SetLoad(1)
	before := c.Node.PState()
	p, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 {
		t.Error("step should report power")
	}
	if c.Node.PState() != before {
		t.Error("uncapped controller must not actuate")
	}
	if c.Violations() != 0 {
		t.Error("no cap, no violations")
	}
	if c.Steps() != 1 {
		t.Errorf("Steps = %d", c.Steps())
	}
}

func TestCapConvergesFromAbove(t *testing.T) {
	c := newCapper(t)
	c.Node.SetLoad(1) // ~1980 W uncapped
	if err := c.SetCap(1500); err != nil {
		t.Fatal(err)
	}
	trace, err := c.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	// Final power must be at or below the cap.
	final := c.Node.Power()
	if final > 1500 {
		t.Errorf("final power %v above cap", final)
	}
	// Early samples violate, later ones do not: the controller converged.
	te, err := Analyze(trace, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if te.Violations == 0 {
		t.Error("expected initial violations before convergence")
	}
	last10 := trace[len(trace)-10:]
	for _, p := range last10 {
		if p > 1500+1 {
			t.Errorf("steady-state sample %v above cap", p)
		}
	}
}

func TestCapRecoversWhenLoadDrops(t *testing.T) {
	c := newCapper(t)
	c.Node.SetLoad(1)
	if err := c.SetCap(1400); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(60); err != nil {
		t.Fatal(err)
	}
	lowState := c.Node.PState()
	// Load vanishes: the controller should climb back up the ladder.
	c.Node.SetLoad(0.1)
	if _, err := c.Run(80); err != nil {
		t.Fatal(err)
	}
	if c.Node.PState() <= lowState {
		t.Errorf("controller should raise P-state when idle (was %d, now %d)", lowState, c.Node.PState())
	}
	if c.Node.Power() > 1400 {
		t.Errorf("power %v must stay under cap", c.Node.Power())
	}
}

func TestDeepCapEngagesGPUs(t *testing.T) {
	c := newCapper(t)
	c.Node.SetLoad(1)
	// Deeper than the CPU ladder alone can reach: idle 360 + CPU range.
	if err := c.SetCap(1200); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(120); err != nil {
		t.Fatal(err)
	}
	if c.Node.Power() > 1200+1 {
		t.Errorf("deep cap not reached: %v", c.Node.Power())
	}
	if c.Node.PState() != 0 {
		t.Error("CPU ladder should be at the floor under a deep cap")
	}
	capped := false
	for _, g := range c.Node.GPUs {
		if g.PowerCap() > 0 {
			capped = true
		}
	}
	if !capped {
		t.Error("deep cap should engage GPU power limits")
	}
}

func TestRunValidation(t *testing.T) {
	c := newCapper(t)
	if _, err := c.Run(0); err == nil {
		t.Error("zero steps should error")
	}
}

func TestAnalyze(t *testing.T) {
	trace := []units.Watt{1600, 1550, 1500, 1450, 1400}
	te, err := Analyze(trace, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if te.Violations != 2 {
		t.Errorf("Violations = %d, want 2", te.Violations)
	}
	if te.MaxPowerW != 1600 {
		t.Errorf("MaxPowerW = %v", te.MaxPowerW)
	}
	if math.Abs(te.MeanPowerW-1500) > 1e-9 {
		t.Errorf("MeanPowerW = %v", te.MeanPowerW)
	}
	wantRMS := math.Sqrt((100*100 + 50*50) / 5.0)
	if math.Abs(te.OvershootRMSW-wantRMS) > 1e-9 {
		t.Errorf("OvershootRMSW = %v, want %v", te.OvershootRMSW, wantRMS)
	}
	if _, err := Analyze(nil, 100); err == nil {
		t.Error("empty trace should error")
	}
	// Uncapped trace: no violations.
	te, err = Analyze(trace, 0)
	if err != nil || te.Violations != 0 {
		t.Errorf("uncapped analyze = %+v, %v", te, err)
	}
}

func TestCappingCostsPerformance(t *testing.T) {
	// E7's core trade-off: a capped node delivers fewer flops.
	free, err := node.New(0, node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	free.SetLoad(1)
	c := newCapper(t)
	c.Node.SetLoad(1)
	if err := c.SetCap(1400); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(80); err != nil {
		t.Fatal(err)
	}
	if c.Node.PeakFlops() >= free.PeakFlops() {
		t.Errorf("capped flops %v should be below free %v", c.Node.PeakFlops(), free.PeakFlops())
	}
}
