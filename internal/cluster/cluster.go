// Package cluster assembles the D.A.V.I.D.E. pilot system of §II-I of the
// paper: four OpenRack cabinets — three with 15 Garrison compute nodes
// each (45 nodes total) and one for storage/management/login — dual-rail
// EDR fat-tree networking, rack-level power banks and hot-water cooling
// loops. The pilot's design targets are 1 PFlops peak at under 100 kW,
// i.e. around 10 GFlops/W, placing it at the top of the Green500 era the
// paper's introduction surveys.
package cluster

import (
	"errors"
	"fmt"

	"davide/internal/interconnect"
	"davide/internal/node"
	"davide/internal/rack"
	"davide/internal/thermal"
	"davide/internal/units"
)

// Config sizes the system.
type Config struct {
	ComputeRacks int
	NodesPerRack int
	NodeConfig   node.Config
	RackBudgetW  units.Watt
	PowerScheme  rack.PowerScheme
	// ServiceRackPowerW is the storage/management/login rack draw.
	ServiceRackPowerW units.Watt
	// Loop is the per-rack cooling loop template.
	LoopInlet units.Celsius
	LoopFlow  float64
	LoopFrac  float64
}

// PilotConfig returns the paper's pilot: 3 compute racks x 15 nodes,
// 32 kW rack feeds, OpenRack power banks, 35 °C / 30 L/min / 78 % loops.
func PilotConfig() Config {
	return Config{
		ComputeRacks:      3,
		NodesPerRack:      15,
		NodeConfig:        node.DefaultConfig(),
		RackBudgetW:       32000,
		PowerScheme:       rack.RackLevelBank,
		ServiceRackPowerW: 6000,
		LoopInlet:         35,
		LoopFlow:          30,
		LoopFrac:          0.78,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.ComputeRacks <= 0:
		return errors.New("cluster: need at least one compute rack")
	case c.NodesPerRack <= 0:
		return errors.New("cluster: need at least one node per rack")
	case c.RackBudgetW <= 0:
		return errors.New("cluster: rack budget must be positive")
	case c.ServiceRackPowerW < 0:
		return errors.New("cluster: negative service power")
	}
	return c.NodeConfig.Validate()
}

// Cluster is the assembled pilot system.
type Cluster struct {
	cfg    Config
	Nodes  []*node.Node
	Racks  []*rack.Rack
	Fabric *interconnect.FatTree
	Loops  []*thermal.Loop
}

// New assembles a cluster.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	total := cfg.ComputeRacks * cfg.NodesPerRack
	for i := 0; i < total; i++ {
		n, err := node.New(i, cfg.NodeConfig)
		if err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
	}
	for r := 0; r < cfg.ComputeRacks; r++ {
		rk, err := rack.New(cfg.PowerScheme, cfg.NodesPerRack, cfg.RackBudgetW)
		if err != nil {
			return nil, err
		}
		c.Racks = append(c.Racks, rk)
		loop, err := thermal.NewLoop(cfg.LoopInlet, cfg.LoopFlow, cfg.LoopFrac, 18)
		if err != nil {
			return nil, err
		}
		c.Loops = append(c.Loops, loop)
	}
	ft, err := interconnect.DefaultFatTree(total)
	if err != nil {
		return nil, err
	}
	c.Fabric = ft
	return c, nil
}

// NodeCount returns the number of compute nodes.
func (c *Cluster) NodeCount() int { return len(c.Nodes) }

// SetLoad drives all nodes to a utilisation level.
func (c *Cluster) SetLoad(u float64) {
	for _, n := range c.Nodes {
		n.SetLoad(u)
	}
}

// syncRackLoads pushes node DC loads into the rack models.
func (c *Cluster) syncRackLoads() error {
	for i, n := range c.Nodes {
		r := c.Racks[i/c.cfg.NodesPerRack]
		if err := r.SetNodeLoad(i%c.cfg.NodesPerRack, n.Power()); err != nil {
			return err
		}
	}
	return nil
}

// ITPower returns the DC power of all compute nodes.
func (c *Cluster) ITPower() units.Watt {
	var p units.Watt
	for _, n := range c.Nodes {
		p += n.Power()
	}
	return p
}

// FacilityPower returns total AC power: rack conversion losses, fan walls,
// pumps and the service rack included.
func (c *Cluster) FacilityPower() (units.Watt, error) {
	if err := c.syncRackLoads(); err != nil {
		return 0, err
	}
	total := c.cfg.ServiceRackPowerW
	for i, r := range c.Racks {
		ac, err := r.ACInput()
		if err != nil {
			return 0, fmt.Errorf("cluster: rack %d: %w", i, err)
		}
		total += ac
		// Fan wall + pumps per rack, sized from the air-side heat.
		fans := []*thermal.Fan{thermal.OpenRackFan(), thermal.OpenRackFan(), thermal.OpenRackFan(), thermal.OpenRackFan()}
		eff, err := thermal.EvaluateLoop(c.Loops[i], r.DCLoad(), fans, 2500, 150)
		if err != nil {
			return 0, err
		}
		total += eff.FanPower + eff.PumpPower
	}
	return total, nil
}

// PeakFlops returns the aggregate peak throughput at current operating
// points.
func (c *Cluster) PeakFlops() units.Flops {
	var f units.Flops
	for _, n := range c.Nodes {
		f += n.PeakFlops()
	}
	return f
}

// LinpackResult is the E1 system-efficiency experiment outcome.
type LinpackResult struct {
	PeakFlops      units.Flops
	SustainedFlops units.Flops // at the HPL efficiency factor
	ITPowerW       units.Watt
	FacilityPowerW units.Watt
	GFlopsPerWatt  float64 // Green500 metric on facility power
}

// RunLinpack drives the machine at full load with the given HPL
// efficiency (fraction of peak a dense solve sustains; ~0.75 for
// GPU-heavy systems of the era) and reports the efficiency metrics.
func (c *Cluster) RunLinpack(hplEff float64) (LinpackResult, error) {
	if hplEff <= 0 || hplEff > 1 {
		return LinpackResult{}, errors.New("cluster: HPL efficiency must be in (0,1]")
	}
	c.SetLoad(1)
	fac, err := c.FacilityPower()
	if err != nil {
		return LinpackResult{}, err
	}
	res := LinpackResult{
		PeakFlops:      c.PeakFlops(),
		ITPowerW:       c.ITPower(),
		FacilityPowerW: fac,
	}
	res.SustainedFlops = units.Flops(float64(res.PeakFlops) * hplEff)
	res.GFlopsPerWatt = units.Efficiency(res.SustainedFlops, fac)
	return res, nil
}

// ThrottleReport summarises experiment E12 on one cooling configuration.
type ThrottleReport struct {
	Cooling          node.Cooling
	NodesThrottled   int
	DevicesThrottled int
	TotalDevices     int
	MinNodeFlops     units.Flops
	MaxNodeFlops     units.Flops
	// ImbalancePct is (max-min)/max node throughput — the "not evenly
	// distributed across the server nodes" degradation of §II-G.
	ImbalancePct float64
}

// ThrottleStudy runs the cluster at full load for `seconds` of thermal
// time and reports throttling incidence and throughput imbalance.
func (c *Cluster) ThrottleStudy(seconds float64) (ThrottleReport, error) {
	if seconds <= 0 {
		return ThrottleReport{}, errors.New("cluster: study duration must be positive")
	}
	c.SetLoad(1)
	rep := ThrottleReport{Cooling: c.cfg.NodeConfig.Cooling}
	const step = 5.0
	for t := 0.0; t < seconds; t += step {
		for _, n := range c.Nodes {
			if _, err := n.AdvanceThermal(step); err != nil {
				return ThrottleReport{}, err
			}
		}
	}
	minF := units.Flops(-1)
	var maxF units.Flops
	for _, n := range c.Nodes {
		th, err := n.AdvanceThermal(0.001)
		if err != nil {
			return ThrottleReport{}, err
		}
		rep.DevicesThrottled += th
		rep.TotalDevices += len(n.Sockets) + len(n.GPUs)
		if th > 0 {
			rep.NodesThrottled++
		}
		f := n.PeakFlops()
		if minF < 0 || f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	rep.MinNodeFlops = minF
	rep.MaxNodeFlops = maxF
	if maxF > 0 {
		rep.ImbalancePct = 100 * float64(maxF-minF) / float64(maxF)
	}
	return rep, nil
}
