// Package capping implements the reactive node-level power capping of
// §III-A2 of the paper: "a total node power cap is maintained by local
// feedback controllers which tune the operating points of the internal
// components in the compute node to track the maximum power set point."
//
// NodeCapper is that controller: it steps the socket P-state ladder and
// the GPU power limits, sampling node power each control period — the
// DVFS-style actuator of §V-D. Analyze scores a trace it produced against
// the cap.
package capping

import (
	"errors"
	"fmt"
	"math"

	"davide/internal/node"
	"davide/internal/units"
)

// NodeCapper drives one node towards a power set point by moving the CPU
// P-state ladder and (when CPU headroom is exhausted) the GPU power caps.
type NodeCapper struct {
	Node *node.Node
	// CapW is the node power set point; 0 disables capping.
	CapW units.Watt
	// Hysteresis keeps the controller from oscillating: it only raises
	// the operating point when power is below cap*(1-Hysteresis).
	Hysteresis float64
	// gpuCapFrac is the current GPU power-limit fraction of TDP.
	gpuCapFrac float64
	violations int
	steps      int
}

// NewNodeCapper creates a controller for the node; the cap starts disabled.
func NewNodeCapper(n *node.Node) (*NodeCapper, error) {
	if n == nil {
		return nil, errors.New("capping: nil node")
	}
	return &NodeCapper{Node: n, Hysteresis: 0.05, gpuCapFrac: 1}, nil
}

// SetCap sets the node power set point (0 disables). Caps below the node's
// idle power are rejected: no operating point can satisfy them.
func (c *NodeCapper) SetCap(w units.Watt) error {
	if w < 0 {
		return errors.New("capping: negative cap")
	}
	if w > 0 && w < c.Node.IdlePower() {
		return fmt.Errorf("capping: cap %v below idle power %v", w, c.Node.IdlePower())
	}
	c.CapW = w
	return nil
}

// Cap returns the current set point.
func (c *NodeCapper) Cap() units.Watt { return c.CapW }

// Violations returns how many control steps observed power above cap.
func (c *NodeCapper) Violations() int { return c.violations }

// Steps returns the number of control steps executed.
func (c *NodeCapper) Steps() int { return c.steps }

// Step runs one control period: observe node power, then lower or raise
// the operating point one notch towards the set point. Returns the power
// observed before actuation.
func (c *NodeCapper) Step() (units.Watt, error) {
	p := c.Node.Power()
	c.steps++
	if c.CapW == 0 {
		return p, nil
	}
	if p > c.CapW {
		c.violations++
		// Reduce: first walk the CPU ladder down, then squeeze GPUs.
		if c.Node.PState() > 0 {
			if err := c.Node.SetPState(c.Node.PState() - 1); err != nil {
				return p, err
			}
			return p, nil
		}
		if c.gpuCapFrac > 0.35 {
			c.gpuCapFrac -= 0.05
			if err := c.applyGPUCap(); err != nil {
				return p, err
			}
		}
		return p, nil
	}
	// Raise only when safely below the set point.
	if float64(p) < float64(c.CapW)*(1-c.Hysteresis) {
		if c.gpuCapFrac < 1 {
			c.gpuCapFrac += 0.05
			if c.gpuCapFrac > 1 {
				c.gpuCapFrac = 1
			}
			if err := c.applyGPUCap(); err != nil {
				return p, err
			}
			return p, nil
		}
		if c.Node.PState() < c.Node.PStateCount()-1 {
			if err := c.Node.SetPState(c.Node.PState() + 1); err != nil {
				return p, err
			}
		}
	}
	return p, nil
}

// applyGPUCap pushes the current GPU cap fraction to all powered GPUs.
func (c *NodeCapper) applyGPUCap() error {
	for _, g := range c.Node.GPUs {
		cfg := g.Config()
		if c.gpuCapFrac >= 1 {
			if err := g.SetPowerCap(0); err != nil {
				return err
			}
			continue
		}
		cap := units.Watt(float64(cfg.TDP) * c.gpuCapFrac)
		if cap < cfg.IdlePower {
			cap = cfg.IdlePower
		}
		if err := g.SetPowerCap(cap); err != nil {
			return err
		}
	}
	return nil
}

// Run executes n control steps and returns the observed power trace.
func (c *NodeCapper) Run(n int) ([]units.Watt, error) {
	if n <= 0 {
		return nil, errors.New("capping: need at least one step")
	}
	out := make([]units.Watt, 0, n)
	for i := 0; i < n; i++ {
		p, err := c.Step()
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// TrackingError summarises cap tracking over a trace: RMS distance from the
// cap (counting only overshoot) and mean delivered power.
type TrackingError struct {
	CapW          units.Watt
	MeanPowerW    float64
	OvershootRMSW float64
	MaxPowerW     float64
	Violations    int
	Steps         int
}

// Analyze computes tracking statistics for a power trace against a cap.
func Analyze(trace []units.Watt, cap units.Watt) (TrackingError, error) {
	if len(trace) == 0 {
		return TrackingError{}, errors.New("capping: empty trace")
	}
	te := TrackingError{CapW: cap, Steps: len(trace)}
	var sum, sq float64
	max := 0.0
	for _, p := range trace {
		f := float64(p)
		sum += f
		if f > max {
			max = f
		}
		if cap > 0 && p > cap {
			d := f - float64(cap)
			sq += d * d
			te.Violations++
		}
	}
	te.MeanPowerW = sum / float64(len(trace))
	te.MaxPowerW = max
	te.OvershootRMSW = math.Sqrt(sq / float64(len(trace)))
	return te, nil
}
