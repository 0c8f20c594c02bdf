package sched

import "sort"

// The policy space beyond FIFO and the paper's power-aware admission:
// classic power-blind disciplines (SJF, EASY-backfill) and power-aware
// refinements (SJF and EASY under the cap, weighted-scoring admission, a
// deadline-aware EDF variant). Every strategy here decides only from
// the DispatchEnv's scheduler-visible view — wall limits, predictions,
// measured power — never from hidden true durations or powers, and all
// orderings break ties on the queue index so dispatch is deterministic.

// sjfStrategy orders the queue by ascending user wall limit.
type sjfStrategy struct{ power bool }

// NewSJFStrategy returns shortest-job-first dispatch: pending jobs are
// considered in ascending order of their user wall limit (ties:
// submission order) and every job whose node request fits starts —
// power-blind, the classic mean-wait optimiser with no cap awareness
// and no starvation protection for wide or long jobs.
func NewSJFStrategy() Strategy { return &sjfStrategy{} }

// NewSJFPowerStrategy is SJF with power-aware admission: the same
// shortest-first ordering, but a job only starts when measured machine
// power plus its predicted delta fits under the tick's admission cap.
func NewSJFPowerStrategy() Strategy { return &sjfStrategy{power: true} }

func (s *sjfStrategy) Name() string {
	if s.power {
		return "sjf-power"
	}
	return "sjf"
}

func (s *sjfStrategy) PowerAware() bool { return s.power }

func (s *sjfStrategy) Dispatch(env *DispatchEnv) error {
	order := queueOrder(env.Len(), func(a, b int) bool {
		wa, wb := env.Job(a).WallLimit, env.Job(b).WallLimit
		if wa != wb {
			return wa < wb
		}
		return a < b
	})
	for _, i := range order {
		if env.Job(i).Nodes > env.FreeNodes() {
			continue
		}
		if ok, err := admits(env, i, s.power); err != nil {
			return err
		} else if ok {
			env.Start(i)
		}
	}
	return nil
}

// easyStrategy is EASY-backfill.
type easyStrategy struct{ power bool }

// NewEASYStrategy returns EASY-backfill: FCFS with an aggressive
// backfill pass guarded by a shadow-time reservation for the blocked
// queue head. The shadow time comes from running jobs' wall-limit
// expected ends at nominal speed — the scheduler cannot see true
// durations or reactive-capping stretch. Power-blind.
func NewEASYStrategy() Strategy { return easyStrategy{} }

// NewEASYPowerStrategy is EASY-backfill with power-aware admission: the
// same order and reservation, but the head and every backfill candidate
// also start only when the believed machine power plus their predicted
// delta fits under the admission cap (the paper's proactive capping).
func NewEASYPowerStrategy() Strategy { return easyStrategy{power: true} }

func (e easyStrategy) Name() string {
	if e.power {
		return "easy-power"
	}
	return "easy"
}

func (e easyStrategy) PowerAware() bool { return e.power }

func (e easyStrategy) Dispatch(env *DispatchEnv) error {
	// FCFS phase: start queue-head jobs while they fit.
	i, err := inOrder(env, e.power)
	if err != nil || i >= env.Len() {
		return err
	}
	// EASY backfill: compute the shadow time at which the blocked head
	// could start from running jobs' expected ends.
	head := env.Job(i)
	rels := env.Running()
	sort.SliceStable(rels, func(a, b int) bool {
		return rels[a].StartAt+rels[a].WallLimit < rels[b].StartAt+rels[b].WallLimit
	})
	avail := env.FreeNodes()
	shadow := env.Now()
	for _, r := range rels {
		if avail >= head.Nodes {
			break
		}
		avail += r.Nodes
		shadow = r.StartAt + r.WallLimit
	}
	if avail < head.Nodes {
		return nil // head can never start (prevented by validation)
	}
	// Nodes spare at the shadow time beyond the head's need.
	spare := avail - head.Nodes
	for j := i + 1; j < env.Len(); j++ {
		cand := env.Job(j)
		fitsNow := cand.Nodes <= env.FreeNodes()
		finishesBeforeShadow := env.Now()+cand.WallLimit <= shadow
		fitsSpare := cand.Nodes <= spare
		if !fitsNow || !(finishesBeforeShadow || fitsSpare) {
			continue
		}
		if ok, err := admits(env, j, e.power); err != nil {
			return err
		} else if !ok {
			continue
		}
		if env.Start(j) && !finishesBeforeShadow {
			spare -= cand.Nodes
		}
	}
	return nil
}

// The weighted strategy's score weights. Each scales one normalized
// term of a pending job's dispatch score; jobs are considered in
// descending score order.
const (
	// weightAge rewards queue age: wait seconds normalized by the env's
	// HeadReserveS. Unbounded growth is the anti-starvation mechanism —
	// any job eventually outscores the field.
	weightAge = 1
	// weightPower penalises the job's predicted machine power delta as a
	// fraction of the nominal cap (prefer frugal jobs when the machine
	// is tight).
	weightPower = 0.4
	// weightEnergy penalises predicted energy — delta × wall limit,
	// normalized by one nominal-cap-hour (admit cheap-to-run work first).
	weightEnergy = 0.3
	// weightFit rewards how snugly the job's delta fills the current
	// admission headroom (best-fit packing reduces stranded headroom;
	// the term is delta/headroom in [0, 1] when the job fits, 0
	// otherwise).
	weightFit = 0.25
)

// weightedStrategy scores the queue each tick and admits under the cap
// in score order.
type weightedStrategy struct{}

// NewWeightedStrategy returns weighted-scoring power-aware admission:
// each tick every pending job gets a score mixing queue age (reward),
// predicted power delta (penalty), predicted energy (penalty) and
// headroom fit (reward); jobs are considered in descending score order
// (ties: submission order) and start only when measured power plus
// their predicted delta fits under the tick's admission cap. The age
// term replaces the built-in head-reserve rule: starvation is priced,
// not policed.
func NewWeightedStrategy() Strategy { return &weightedStrategy{} }

func (*weightedStrategy) Name() string     { return "weighted" }
func (*weightedStrategy) PowerAware() bool { return true }

func (*weightedStrategy) Dispatch(env *DispatchEnv) error {
	n := env.Len()
	if n == 0 {
		return nil
	}
	capW := env.NominalCapW()
	headroom := env.AdmitCapW() - env.MeasuredW()
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		delta, err := env.PredictedDeltaW(i)
		if err != nil {
			return err
		}
		age := env.WaitS(i) / env.HeadReserveS()
		powerFrac := delta / capW
		energy := delta * env.Job(i).WallLimit / (capW * 3600)
		fit := 0.0
		if headroom > 0 && delta <= headroom {
			fit = delta / headroom
		}
		scores[i] = weightAge*age - weightPower*powerFrac - weightEnergy*energy + weightFit*fit
	}
	order := queueOrder(n, func(a, b int) bool {
		if scores[a] != scores[b] {
			return scores[a] > scores[b]
		}
		return a < b
	})
	for _, i := range order {
		if env.Job(i).Nodes > env.FreeNodes() {
			continue
		}
		if ok, err := admits(env, i, true); err != nil {
			return err
		} else if ok {
			env.Start(i)
		}
	}
	return nil
}

// edfSlack is the EDF strategy's deadline slack factor: each job's
// synthetic deadline is its submission time plus edfSlack × its wall
// limit.
const edfSlack = 3

// edfStrategy dispatches earliest-deadline-first under the cap.
type edfStrategy struct{}

// NewEDFStrategy returns deadline-aware power admission: every job gets
// a synthetic deadline SubmitAt + edfSlack × WallLimit, pending jobs are considered earliest-deadline-first
// (ties: submission order) under the power cap, and once the most
// urgent job must start immediately to make its deadline (now +
// WallLimit past it), backfill behind it pauses — the deadline-driven
// analogue of the built-in head-reserve rule.
func NewEDFStrategy() Strategy { return &edfStrategy{} }

func (*edfStrategy) Name() string     { return "edf-power" }
func (*edfStrategy) PowerAware() bool { return true }

// deadline computes queue job i's synthetic deadline.
func (*edfStrategy) deadline(env *DispatchEnv, i int) float64 {
	j := env.Job(i)
	return j.SubmitAt + edfSlack*j.WallLimit
}

func (e *edfStrategy) Dispatch(env *DispatchEnv) error {
	n := env.Len()
	if n == 0 {
		return nil
	}
	order := queueOrder(n, func(a, b int) bool {
		da, db := e.deadline(env, a), e.deadline(env, b)
		if da != db {
			return da < db
		}
		return a < b
	})
	// The most urgent job blocks backfill once only an immediate start
	// can still make its deadline.
	urgent := env.Now()+env.Job(order[0]).WallLimit > e.deadline(env, order[0])
	for k, i := range order {
		if env.Job(i).Nodes > env.FreeNodes() {
			if k == 0 && urgent {
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
			if k == 0 && urgent {
				break
			}
			continue
		}
		env.Start(i)
	}
	return nil
}
