// Package sched implements the job dispatcher of §III-A2 of the paper:
// the SLURM-style scheduling layer that D.A.V.I.D.E. extends with power
// awareness. It is one scheduler core (machine: job records, queues,
// free-node list, prediction cache and the dispatch pass through a
// Strategy) under two drivers: the batch Simulator, event-driven over
// virtual time against each job's true power constants, and the live
// Controller, tick-driven against power measured through the telemetry
// plane. The configurations compared in experiment E8 are a Strategy
// plus the Config's cap mechanism:
//
//   - FIFO (first-come-first-served) or EASY (FCFS with EASY
//     backfilling: aggressive backfill with a reservation for the queue
//     head), no power awareness;
//   - proactive: the power-aware variant of either, admission control
//     against a system power cap using per-job power *predictions* (the
//     paper's ML predictors);
//   - reactive-only: no admission control; when the machine exceeds the
//     cap, node-level capping slows every running job down (performance
//     loss and SLA risk, as the paper warns).
//
// Proactive and reactive can be combined, the configuration the paper
// advocates ("mix both proactive and reactive power capping techniques").
//
// When reactive capping engages, running jobs stretch; the recorded
// power trace and all QoS metrics account for it.
package sched

import (
	"errors"
	"fmt"
	"math"

	"davide/internal/sensor"
	"davide/internal/stats"
	"davide/internal/workload"
)

// Config describes one scheduling run.
type Config struct {
	Nodes int // machine size in nodes
	// PowerCapW caps the whole machine's compute power draw; 0 disables.
	PowerCapW float64
	// Estimator returns the per-node power prediction for a job. A
	// power-aware Strategy (proactive capping) consults it to refuse jobs
	// whose predicted power exceeds the headroom under PowerCapW.
	Estimator func(workload.Job) (float64, error)
	// ReactiveCapping slows all running jobs proportionally whenever true
	// power exceeds the cap, emulating node-level capping.
	ReactiveCapping bool
	// IdleNodePowerW is the draw of an idle node, included in the trace.
	IdleNodePowerW float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return errors.New("sched: need at least one node")
	case !nonNegFinite(c.PowerCapW):
		return fmt.Errorf("sched: power cap %g W is not a finite value >= 0", c.PowerCapW)
	case !nonNegFinite(c.IdleNodePowerW):
		return fmt.Errorf("sched: idle power %g W is not a finite value >= 0", c.IdleNodePowerW)
	}
	return nil
}

// nonNegFinite is the range test of every magnitude a config carries. It
// is written as what must hold because NaN fails every comparison: a
// `x < 0` rejection lets it through, and a NaN cap never admits a job.
func nonNegFinite(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// Result carries the metrics of one run.
type Result struct {
	Policy          string            // discipline label (Strategy.Name, "+reactive" when it also caps reactively)
	Jobs            int               // jobs submitted
	Makespan        float64           // seconds from first submit to last completion
	MeanWait        float64           // mean queue wait, seconds
	MaxWait         float64           // worst queue wait, seconds
	MeanSlowdown    float64           // bounded slowdown, threshold 60 s
	P95Slowdown     float64           // 95th-percentile bounded slowdown
	UtilizationPct  float64           // node-seconds busy / node-seconds total
	EnergyJ         float64           // compute energy from the true power trace
	CapW            float64           // the configured power cap, watts (0 = uncapped)
	CapViolationSec float64           // seconds with true power above cap
	CapOverRMSW     float64           // RMS overshoot during violations
	SlowdownGini    float64           // fairness over per-job slowdowns
	Trace           *sensor.Piecewise // true machine power over time
	Starts          map[int]float64   // job ID -> start time
	Ends            map[int]float64   // job ID -> end time
}

// simHeadReserveS is the anti-starvation bound strategies see on the
// batch Simulator: 60 of the Controller's default 30 s ticks.
const simHeadReserveS = 1800

// Simulator runs one scheduling experiment: the scheduler core driven
// event to event over virtual time.
type Simulator struct {
	*machine
	speed      float64 // current execution speed (1 = nominal)
	trace      *sensor.Piecewise
	capViolSec float64
	capOverSq  float64 // integral of squared overshoot
}

// NewSimulator validates the config and prepares a run over the jobs
// under the given dispatch discipline (nil = strict FIFO). A power-aware
// strategy needs cfg.PowerCapW and cfg.Estimator.
func NewSimulator(cfg Config, strategy Strategy, jobs []workload.Job) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := newMachine(cfg, strategy, cfg.Estimator, simHeadReserveS, jobs)
	if err != nil {
		return nil, err
	}
	return &Simulator{
		machine: m, speed: 1,
		trace: sensor.NewPiecewise(0, cfg.IdleNodePowerW*float64(cfg.Nodes)),
	}, nil
}

// truePower returns the actual compute power of running jobs plus idle
// nodes.
func (s *Simulator) truePower() float64 {
	p := float64(len(s.free)) * s.cfg.IdleNodePowerW
	for _, r := range s.running {
		p += r.job.TotalPower()
	}
	return p
}

// predictedPower returns the scheduler's belief about current power:
// idle nodes at idle draw, running jobs at their predicted draw.
func (s *Simulator) predictedPower() float64 {
	p := float64(len(s.free)) * s.cfg.IdleNodePowerW
	for _, r := range s.running {
		p += r.predicted * float64(r.job.Nodes)
	}
	return p
}

// updateSpeed recomputes the reactive-capping execution speed.
func (s *Simulator) updateSpeed() {
	s.speed = 1
	if !s.cfg.ReactiveCapping || s.cfg.PowerCapW == 0 {
		return
	}
	p := s.truePower()
	if p > s.cfg.PowerCapW {
		// Node capping slows compute; power tracks the cap. Guard the
		// idle floor: capping cannot reduce idle draw.
		idle := float64(s.cfg.Nodes) * s.cfg.IdleNodePowerW
		dyn := p - idle
		budget := s.cfg.PowerCapW - idle
		if budget <= 0 {
			s.speed = 0.05
			return
		}
		s.speed = math.Max(0.05, budget/dyn)
	}
}

// effectivePower returns the power recorded in the trace, accounting for
// reactive capping pushing power down to the cap.
func (s *Simulator) effectivePower() float64 {
	p := s.truePower()
	if s.cfg.ReactiveCapping && s.cfg.PowerCapW > 0 && p > s.cfg.PowerCapW {
		idle := float64(s.cfg.Nodes) * s.cfg.IdleNodePowerW
		capped := idle + (p-idle)*s.speed
		return math.Max(math.Min(capped, s.cfg.PowerCapW), idle)
	}
	return p
}

// Run executes the simulation to completion and returns metrics.
func (s *Simulator) Run() (*Result, error) {
	if s.trace == nil {
		return nil, errors.New("sched: simulator already consumed")
	}
	for {
		// Next event: arrival or completion.
		nextArrival := math.Inf(1)
		if s.arrived < len(s.jobs) {
			nextArrival = s.jobs[s.arrived].job.SubmitAt
		}
		nextEnd := math.Inf(1)
		if s.speed > 0 {
			for _, r := range s.running {
				end := s.now + r.remaining/s.speed
				if end < nextEnd {
					nextEnd = end
				}
			}
		}
		t := math.Min(nextArrival, nextEnd)
		if math.IsInf(t, 1) {
			break // no arrivals left, nothing running
		}
		// Advance work and account the power trace for [now, t].
		dt := t - s.now
		if dt > 0 {
			p := s.effectivePower()
			if s.cfg.PowerCapW > 0 && p > s.cfg.PowerCapW {
				s.capViolSec += dt
				over := p - s.cfg.PowerCapW
				s.capOverSq += over * over * dt
			}
			s.work(dt * s.speed)
		}
		s.now = t
		s.retire(t)
		s.arrive(t)
		if err := s.dispatch(s.predictedPower(), s.cfg.PowerCapW); err != nil {
			return nil, err
		}
		s.updateSpeed()
		if err := s.trace.Set(s.now, s.effectivePower()); err != nil {
			return nil, err
		}
	}
	outs, err := s.outcomes()
	if err != nil {
		return nil, err
	}
	res, err := summarize(s.label(), outs, s.cfg.Nodes, s.cfg.PowerCapW,
		s.trace, s.capViolSec, s.capOverSq)
	if err != nil {
		return nil, err
	}
	s.trace = nil // mark consumed
	return res, nil
}

// jobOutcome is one finished job's timing, the input both the batch
// simulator and the live controller summarise QoS metrics from.
type jobOutcome struct {
	id            int
	submit, start float64
	end           float64
	nodes         int
}

// summarize turns per-job outcomes plus a power trace into a Result:
// the metric set shared by the batch Simulator and the live Controller.
func summarize(policy string, outs []jobOutcome, machineNodes int, capW float64, trace *sensor.Piecewise, capViolSec, capOverSq float64) (*Result, error) {
	res := &Result{
		Policy: policy,
		Jobs:   len(outs),
		CapW:   capW,
		Trace:  trace,
		Starts: make(map[int]float64, len(outs)),
		Ends:   make(map[int]float64, len(outs)),
	}
	var waits, slows []float64
	var busyNodeSec float64
	for _, o := range outs {
		res.Starts[o.id] = o.start
		res.Ends[o.id] = o.end
		wait := o.start - o.submit
		waits = append(waits, wait)
		run := o.end - o.start
		// Bounded slowdown with a 60-second threshold.
		den := math.Max(run, 60)
		slows = append(slows, math.Max(1, (wait+run)/den))
		busyNodeSec += run * float64(o.nodes)
		if o.end > res.Makespan {
			res.Makespan = o.end
		}
	}
	res.MeanWait = stats.Mean(waits)
	res.MaxWait = stats.Max(waits)
	res.MeanSlowdown = stats.Mean(slows)
	p95, err := stats.Percentile(slows, 95)
	if err != nil {
		return nil, err
	}
	res.P95Slowdown = p95
	if res.Makespan > 0 {
		res.UtilizationPct = 100 * busyNodeSec / (res.Makespan * float64(machineNodes))
	}
	gini, err := stats.Gini(slows)
	if err != nil {
		return nil, err
	}
	res.SlowdownGini = gini
	e, err := trace.Energy(0, res.Makespan)
	if err != nil {
		return nil, err
	}
	res.EnergyJ = e
	res.CapViolationSec = capViolSec
	if capViolSec > 0 {
		res.CapOverRMSW = math.Sqrt(capOverSq / capViolSec)
	}
	return res, nil
}
