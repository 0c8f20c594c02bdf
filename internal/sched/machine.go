package sched

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"davide/internal/workload"
)

// This file is the scheduler core both drivers embed: the job records,
// the pending/running queues, the free-node list, the prediction cache
// and the one dispatch pass. The drivers differ only in how time
// advances (Simulator: event to event; Controller: tick by tick) and in
// what they believe about machine power — the two numbers dispatch takes.

// job tracks one job through a run.
type job struct {
	job       workload.Job
	predicted float64 // per-node prediction clamped to idle; 0 = not asked yet
	nodes     []int   // concrete node assignment once started
	startAt   float64
	endAt     float64
	remaining float64 // full-speed seconds of work left
	started   bool
	finished  bool
	// visible (Controller only) reports that the job's telemetry has been
	// measured at least once since it started; until then admission adds
	// its predicted draw on top of the (older) measurement.
	visible bool
}

// machine is the scheduler state a Strategy dispatches over.
type machine struct {
	cfg      Config
	strategy Strategy
	// estimate is the per-node power predictor (Config.Estimator, or the
	// Controller's online trainer); nil when no strategy will ask.
	estimate     func(workload.Job) (float64, error)
	headReserveS float64

	// assignMu guards each job's started/nodes pair so Assignments stays
	// readable from other goroutines (the live query service polls it
	// mid-run) while the driver's goroutine starts jobs.
	assignMu sync.Mutex

	jobs     []*job // all, in submission order
	pending  []*job // arrived, not yet started, in submission order
	running  []*job // in start order
	arrived  int
	finished int
	free     []int // idle node IDs, ascending
	now      float64
	refused  int
}

// powerAwareNeeds reports what a power-aware discipline cannot run
// without: a cap to admit against and a source of predictions.
func powerAwareNeeds(capW float64, predictor bool) error {
	if capW <= 0 {
		return errors.New("sched: power-aware admission needs a power cap")
	}
	if !predictor {
		return errors.New("sched: power-aware admission needs an estimator or trainer")
	}
	return nil
}

// newMachine validates the job list against the configuration and
// prepares an idle machine. A nil strategy is strict FIFO.
func newMachine(cfg Config, strategy Strategy, estimate func(workload.Job) (float64, error), headReserveS float64, jobs []workload.Job) (*machine, error) {
	if strategy == nil {
		strategy = fifoStrategy{}
	}
	if strategy.PowerAware() {
		if err := powerAwareNeeds(cfg.PowerCapW, estimate != nil); err != nil {
			return nil, err
		}
	}
	if len(jobs) == 0 {
		return nil, errors.New("sched: no jobs")
	}
	m := &machine{cfg: cfg, strategy: strategy, estimate: estimate, headReserveS: headReserveS}
	ids := make(map[int]struct{}, len(jobs))
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("sched: job %d: %w", j.ID, err)
		}
		if j.Nodes > cfg.Nodes {
			return nil, fmt.Errorf("sched: job %d requests %d nodes, machine has %d", j.ID, j.Nodes, cfg.Nodes)
		}
		if i > 0 && j.SubmitAt < jobs[i-1].SubmitAt {
			return nil, errors.New("sched: jobs must be sorted by submit time")
		}
		if _, dup := ids[j.ID]; dup {
			// A duplicate would collide in Result.Starts/Ends, the
			// accounting ledger and the assignment map; reject it up front.
			return nil, fmt.Errorf("sched: duplicate job ID %d", j.ID)
		}
		ids[j.ID] = struct{}{}
		m.jobs = append(m.jobs, &job{job: j, remaining: j.Duration})
	}
	m.free = make([]int, cfg.Nodes)
	for n := range m.free {
		m.free[n] = n
	}
	return m, nil
}

// Assignments returns the concrete node IDs each job ran on (filled as
// jobs start; complete once Run returns).
func (m *machine) Assignments() map[int][]int {
	m.assignMu.Lock()
	defer m.assignMu.Unlock()
	out := make(map[int][]int, len(m.jobs))
	for _, j := range m.jobs {
		if j.started {
			out[j.job.ID] = append([]int(nil), j.nodes...)
		}
	}
	return out
}

// label names the run's discipline in Result.Policy.
func (m *machine) label() string {
	name := m.strategy.Name()
	if m.strategy.PowerAware() && m.cfg.ReactiveCapping {
		name += "+reactive"
	}
	return name
}

// arrive queues every job submitted by time t.
func (m *machine) arrive(t float64) {
	for m.arrived < len(m.jobs) && m.jobs[m.arrived].job.SubmitAt <= t {
		m.pending = append(m.pending, m.jobs[m.arrived])
		m.arrived++
	}
}

// predict returns (caching) the per-node power prediction for a job.
func (m *machine) predict(js *job) (float64, error) {
	if js.predicted > 0 {
		return js.predicted, nil
	}
	if m.estimate == nil {
		return 0, fmt.Errorf("sched: predict job %d: no estimator configured", js.job.ID)
	}
	p, err := m.estimate(js.job)
	if err != nil {
		return 0, fmt.Errorf("sched: predict job %d: %w", js.job.ID, err)
	}
	// A prediction below idle would subtract headroom for starting a
	// job; clamp to the physical floor.
	if p < m.cfg.IdleNodePowerW {
		p = m.cfg.IdleNodePowerW
	}
	js.predicted = p
	return p, nil
}

// start launches a job now on the lowest-numbered free nodes.
func (m *machine) start(js *job) {
	n := js.job.Nodes
	m.assignMu.Lock()
	js.nodes = append([]int(nil), m.free[:n]...)
	js.started = true
	m.assignMu.Unlock()
	m.free = m.free[n:]
	js.startAt = m.now
	m.running = append(m.running, js)
}

// dispatch runs the one admission pass: the strategy decides over a
// DispatchEnv whose power view starts at the driver's belief about
// current machine power and admits against admitCapW; started jobs then
// leave the pending queue (submission order kept for the rest).
func (m *machine) dispatch(beliefW, admitCapW float64) error {
	env := &DispatchEnv{m: m, base: beliefW, admitCapW: admitCapW, queue: m.pending}
	if err := m.strategy.Dispatch(env); err != nil {
		return err
	}
	kept := m.pending[:0]
	for _, js := range m.pending {
		if !js.started {
			kept = append(kept, js)
		}
	}
	m.pending = kept
	return nil
}

// work progresses every running job by s full-speed seconds.
func (m *machine) work(s float64) {
	for _, r := range m.running {
		r.remaining -= s
	}
}

// retire completes the running jobs whose work is done (tolerance for
// float error) at time t, returns their nodes to the free list and
// reports them in start order.
func (m *machine) retire(t float64) []*job {
	var done []*job
	still := m.running[:0]
	for _, r := range m.running {
		if r.remaining > 1e-9 {
			still = append(still, r)
			continue
		}
		r.finished = true
		r.endAt = t
		m.free = append(m.free, r.nodes...)
		m.finished++
		done = append(done, r)
	}
	m.running = still
	if done != nil {
		sort.Ints(m.free)
	}
	return done
}

// outcomes returns every job's timing once the run is over.
func (m *machine) outcomes() ([]jobOutcome, error) {
	outs := make([]jobOutcome, 0, len(m.jobs))
	for _, j := range m.jobs {
		if !j.finished {
			return nil, fmt.Errorf("sched: job %d never finished", j.job.ID)
		}
		outs = append(outs, jobOutcome{
			id: j.job.ID, submit: j.job.SubmitAt,
			start: j.startAt, end: j.endAt, nodes: j.job.Nodes,
		})
	}
	return outs, nil
}
