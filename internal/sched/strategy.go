package sched

import (
	"fmt"
	"sort"

	"davide/internal/workload"
)

// This file is the admission seam: Strategy is the pluggable dispatch
// discipline the scheduler core consults once per dispatch pass (every
// Controller tick, every Simulator event), and DispatchEnv is the
// sandboxed view of the core it decides over. The Controller's Admission
// values (AdmitFIFO, AdmitPowerAware) are shorthand for two of the
// strategies here, so a ControllerConfig that names an Admission and one
// that passes the corresponding Strategy produce bit-identical runs —
// the contract the tournament's policy comparisons (internal/tournament,
// E24) rest on.

// Strategy is a pluggable admission discipline. Once per dispatch pass
// the driver hands the strategy a DispatchEnv over the pending queue;
// the strategy decides which pending jobs start now by calling
// DispatchEnv.Start. Jobs it does not start remain queued in submission
// order.
//
// Implementations must be deterministic: decisions may depend only on
// the DispatchEnv view (no wall clock, no randomness, no map iteration),
// so that the same seed replays the same schedule bit-identically — the
// tournament's determinism contract. A Strategy instance may carry
// per-run state and must not be shared across concurrent runs.
type Strategy interface {
	// Name labels the discipline in results (Result.Policy).
	Name() string
	// PowerAware reports whether the strategy consults per-job power
	// predictions. Power-aware strategies require a positive power cap
	// and an estimator or trainer (both drivers' constructors enforce
	// this; core.RunLive and core.RunScheduled wire the system predictor
	// when unset).
	PowerAware() bool
	// Dispatch runs one admission pass over env's pending queue.
	Dispatch(env *DispatchEnv) error
}

// RunningJob is a strategy's read-only view of one running job — what a
// production scheduler can see: when it started, the user's wall-clock
// limit (not the hidden true duration) and its node count. EASY-style
// backfill reservations are computed from these.
type RunningJob struct {
	StartAt   float64
	WallLimit float64
	Nodes     int
}

// DispatchEnv is the view of the scheduler core a Strategy dispatches
// against for one pass. Queue positions are indices 0..Len()-1 in
// submission order; Start consumes free nodes and updates the power
// view, so accessors reflect admissions already made during this pass.
type DispatchEnv struct {
	m *machine
	// base is the driver's belief about machine power (Controller:
	// measured totals plus the predicted draw of admitted-but-not-yet-
	// visible jobs; Simulator: idle nodes plus running jobs' predicted
	// draw), grown by each power-predicted Start during this pass.
	base float64
	// admitCapW is the cap admission runs against this pass.
	admitCapW float64
	queue     []*job
}

// Len returns the pending-queue length.
func (e *DispatchEnv) Len() int { return len(e.queue) }

// Job returns pending job i (submission order) as the scheduler sees
// it. Note that Duration and TruePowerPerNode are hidden from real
// schedulers; honest strategies decide from WallLimit and predictions.
func (e *DispatchEnv) Job(i int) workload.Job { return e.queue[i].job }

// Started reports whether queue job i was started during this pass.
func (e *DispatchEnv) Started(i int) bool { return e.queue[i].started }

// WaitS returns how long queue job i has been waiting, in virtual
// seconds.
func (e *DispatchEnv) WaitS(i int) float64 { return e.m.now - e.queue[i].job.SubmitAt }

// Now returns the pass's virtual time (the tick's start on the
// Controller).
func (e *DispatchEnv) Now() float64 { return e.m.now }

// FreeNodes returns the number of currently idle nodes, updated as
// Start consumes them.
func (e *DispatchEnv) FreeNodes() int { return len(e.m.free) }

// MachineNodes returns the machine size in nodes.
func (e *DispatchEnv) MachineNodes() int { return e.m.cfg.Nodes }

// IdleNodePowerW returns the idle draw of one node in watts.
func (e *DispatchEnv) IdleNodePowerW() float64 { return e.m.cfg.IdleNodePowerW }

// NominalCapW returns the nominal machine power cap (0 = uncapped).
func (e *DispatchEnv) NominalCapW() float64 { return e.m.cfg.PowerCapW }

// AdmitCapW returns the cap admission runs against this pass: on the
// Controller the ramp-tracked effective cap tightened by brownout mode
// and the anti-windup trim (== NominalCapW in static-cap runs and on the
// Simulator).
func (e *DispatchEnv) AdmitCapW() float64 { return e.admitCapW }

// HeadReserveS returns the anti-starvation bound: how long the queue
// head may wait before a strategy should stop backfilling past it
// (60 ticks on the Controller; a constant 1800 s on the Simulator).
func (e *DispatchEnv) HeadReserveS() float64 { return e.m.headReserveS }

// MeasuredW returns the driver's current belief about machine power —
// on the Controller measured per-node totals (stale nodes held at their
// last fresh value) plus the predicted draw of admitted-but-invisible
// jobs — including jobs started earlier in this pass.
func (e *DispatchEnv) MeasuredW() float64 { return e.base }

// Running returns the strategy-visible view of running jobs, in start
// order.
func (e *DispatchEnv) Running() []RunningJob {
	out := make([]RunningJob, 0, len(e.m.running))
	for _, r := range e.m.running {
		out = append(out, RunningJob{StartAt: r.startAt, WallLimit: r.job.WallLimit, Nodes: r.job.Nodes})
	}
	return out
}

// Predict returns the cached per-node power prediction for queue job i
// in watts, clamped to the idle floor.
func (e *DispatchEnv) Predict(i int) (float64, error) { return e.m.predict(e.queue[i]) }

// PredictedDeltaW returns the predicted whole-machine power increase of
// starting queue job i: (per-node prediction − idle) × nodes.
func (e *DispatchEnv) PredictedDeltaW(i int) (float64, error) {
	pred, err := e.m.predict(e.queue[i])
	if err != nil {
		return 0, err
	}
	return (pred - e.m.cfg.IdleNodePowerW) * float64(e.queue[i].job.Nodes), nil
}

// AdmitUnderCap reports whether starting queue job i fits the tick's
// admission cap: measured power plus the predicted deltas of jobs
// already admitted this pass plus job i's own predicted delta. It
// fails fast with an error on a job that could not fit under the
// nominal cap even on an otherwise-idle machine: such a job will never
// start, and silently ticking until maxTicks would burn an hour of
// wall clock streaming an unschedulable queue.
func (e *DispatchEnv) AdmitUnderCap(i int) (bool, error) {
	js := e.queue[i]
	pred, err := e.m.predict(js)
	if err != nil {
		return false, err
	}
	delta := (pred - e.m.cfg.IdleNodePowerW) * float64(js.job.Nodes)
	if float64(e.m.cfg.Nodes)*e.m.cfg.IdleNodePowerW+delta > e.m.cfg.PowerCapW {
		return false, fmt.Errorf(
			"sched: job %d (predicted %.0f W/node × %d nodes) cannot fit under the %.0f W cap even on an idle machine",
			js.job.ID, pred, js.job.Nodes, e.m.cfg.PowerCapW)
	}
	return e.base+delta <= e.admitCapW, nil
}

// Refuse counts one admission refused for lack of power headroom (the
// ControllerResult.RefusedAdmissions metric).
func (e *DispatchEnv) Refuse() { e.m.refused++ }

// Start launches queue job i now on concrete nodes from the free list
// and accounts its predicted delta (if one was computed) against the
// measured-power view. It reports false — and starts nothing — when
// the job already started this pass or its node request does not fit.
func (e *DispatchEnv) Start(i int) bool {
	js := e.queue[i]
	if js.started || js.job.Nodes > len(e.m.free) {
		return false
	}
	if js.predicted > 0 {
		e.base += (js.predicted - e.m.cfg.IdleNodePowerW) * float64(js.job.Nodes)
	}
	e.m.start(js)
	return true
}

// queueOrder returns the indices 0..n-1 sorted by less. Callers must
// supply a total order (break ties on the index itself) so dispatch
// order is deterministic.
func queueOrder(n int, less func(a, b int) bool) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return less(order[x], order[y]) })
	return order
}

// inOrder starts queue jobs strictly in submission order while each
// fits the free nodes and, when power is set, the admission cap — nothing
// may overtake the head. It returns the index of the first job left
// waiting (env.Len() when none is).
func inOrder(env *DispatchEnv, power bool) (int, error) {
	i := 0
	for ; i < env.Len(); i++ {
		if env.Job(i).Nodes > env.FreeNodes() {
			break
		}
		if ok, err := admits(env, i, power); err != nil || !ok {
			return i, err
		}
		env.Start(i)
	}
	return i, nil
}

// admits reports whether queue job i may start under the discipline's
// power rule: always when power-blind, else only under the admission
// cap, counting the refusal.
func admits(env *DispatchEnv, i int, power bool) (bool, error) {
	if !power {
		return true, nil
	}
	ok, err := env.AdmitUnderCap(i)
	if err == nil && !ok {
		env.Refuse()
	}
	return ok, err
}

// fifoStrategy is strict submission order — the paper's baseline;
// power-blind it is the built-in AdmitFIFO discipline.
type fifoStrategy struct{ power bool }

// NewFIFOStrategy returns the built-in FIFO discipline as a Strategy:
// jobs start strictly in submission order as soon as nodes are free,
// ignoring the power cap. Bit-identical to Admission: AdmitFIFO.
func NewFIFOStrategy() Strategy { return fifoStrategy{} }

// NewFIFOPowerStrategy is FIFO with power-aware admission: the same
// strict order, but the head also waits until the believed machine power
// plus its predicted delta fits under the admission cap.
func NewFIFOPowerStrategy() Strategy { return fifoStrategy{power: true} }

func (s fifoStrategy) Name() string {
	if s.power {
		return "live-fifo-power"
	}
	return AdmitFIFO.String()
}

func (s fifoStrategy) PowerAware() bool { return s.power }

func (s fifoStrategy) Dispatch(env *DispatchEnv) error {
	_, err := inOrder(env, s.power)
	return err
}

// powerAwareStrategy is the built-in AdmitPowerAware discipline: greedy
// backfill under the cap with the HeadReserve anti-starvation rule.
type powerAwareStrategy struct{}

// NewPowerAwareStrategy returns the built-in power-aware discipline as
// a Strategy: a job starts only when measured machine power plus its
// predicted delta fits under the tick's admission cap, with greedy
// backfill and the HeadReserveS anti-starvation pause. Bit-identical to
// Admission: AdmitPowerAware.
func NewPowerAwareStrategy() Strategy { return powerAwareStrategy{} }

func (powerAwareStrategy) Name() string     { return AdmitPowerAware.String() }
func (powerAwareStrategy) PowerAware() bool { return true }

func (powerAwareStrategy) Dispatch(env *DispatchEnv) error {
	// Once the queue head has starved past HeadReserveS, backfill
	// pauses until it starts.
	reserveHead := env.Len() > 0 && env.WaitS(0) >= env.HeadReserveS()
	for i := 0; i < env.Len(); i++ {
		if env.Job(i).Nodes > env.FreeNodes() {
			if reserveHead {
				break
			}
			continue
		}
		ok, err := env.AdmitUnderCap(i)
		if err != nil {
			return err
		}
		if !ok {
			env.Refuse()
			if reserveHead && i == 0 {
				break
			}
			continue
		}
		env.Start(i)
	}
	return nil
}
