package sched

import (
	"errors"
	"fmt"
	"math"

	"davide/internal/accounting"
	"davide/internal/obs"
	"davide/internal/predictor"
	"davide/internal/sensor"
	"davide/internal/workload"
)

// This file is the live driver of the scheduler core: where Simulator
// steps it against synthetic per-job power constants, Controller closes
// the paper's loop — each control tick it streams the cluster's power
// into the real telemetry plane (gateways → MQTT → tsdb), reads the
// *measured* power back out of the store, and makes admission, reactive
// capping and predictor-retraining decisions from those measurements.
// Degraded telemetry is handled fail-safe with the capping loop's
// hold-last-safe semantics: a node whose window produced no fresh samples
// keeps its last measured value instead of being assumed idle, so lost
// telemetry can never open phantom headroom under the power cap.

// Admission is shorthand for the two built-in strategies: a
// ControllerConfig with a nil Strategy dispatches through the one its
// Admission names.
type Admission int

const (
	// AdmitFIFO starts jobs strictly in submission order as soon as
	// nodes are free, ignoring the power cap (the paper's baseline).
	AdmitFIFO Admission = iota
	// AdmitPowerAware starts a job only when measured machine power plus
	// the job's predicted draw fits under the cap, greedily backfilling
	// queued jobs that fit both nodes and power.
	AdmitPowerAware
)

// String names the admission discipline.
func (a Admission) String() string {
	if a == AdmitFIFO {
		return "live-fifo"
	}
	return "live-power-aware"
}

// TelemetrySource is the slice of the telemetry store the controller
// reads: mean power over a tick window, per-node energy integrals for
// completed-job accounting, and the monotonic ingested-sample count
// that detects whether a window delivered fresh data at all (monotonic,
// so a retention chunk-drop cannot masquerade as telemetry loss).
// tsdb.DB satisfies it.
type TelemetrySource interface {
	MeanPower(node int, t0, t1 float64) (float64, error)
	Energy(node int, t0, t1 float64) (float64, error)
	IngestedSamples(node int) int
}

// Hooks connect a Controller to the surrounding plant.
type Hooks struct {
	// StreamTick publishes one tick of per-node power levels (levels[n]
	// is node n's draw in watts over [t0, t1)) into the telemetry plane.
	// By the time it returns, whatever the transport delivered must be
	// queryable from the controller's TelemetrySource. Required.
	StreamTick func(t0, t1 float64, levels []float64) error
	// AfterTick runs after the tick's telemetry has been read back —
	// the seam where per-rack capping control loops are pumped.
	AfterTick func(t0, t1 float64) error
	// Perturb, when non-nil, mutates the tick's per-node power levels
	// in place before they are streamed — the seam where scenario
	// physics (thermal DVFS throttling) shapes the power the telemetry
	// plane actually measures. The controller's admission decisions
	// are taken before the perturbation, exactly like a real scheduler
	// that cannot see a thermal event coming.
	Perturb func(t0, t1 float64, levels []float64)
}

// ControllerConfig describes one live control-plane run.
type ControllerConfig struct {
	Config // machine size, cap, estimator, reactive capping, idle power

	// Admission selects FIFO or power-aware dispatch (the two built-in
	// disciplines). Ignored when Strategy is set.
	Admission Admission
	// Strategy, when non-nil, supersedes Admission as the dispatch
	// discipline — the pluggable seam the policy tournament sweeps
	// (internal/tournament). The built-in constructors
	// (NewFIFOStrategy, NewPowerAwareStrategy) reproduce the Admission
	// disciplines bit-identically; see Strategy for the determinism
	// contract implementations must keep.
	Strategy Strategy
	// TickS is the control period in virtual seconds (default 30).
	TickS float64
	// Trainer, when non-nil, supersedes Config.Estimator and is retrained
	// online from measured completions (see predictor.Online).
	Trainer *predictor.Online
	// Metrics, when non-nil, mirrors the controller's health counters
	// (ticks, fresh/stale reads, refused admissions, measure failures)
	// into the registry as davide_sched_* series, live during the run —
	// the ControllerResult fields stay the canonical post-run numbers.
	Metrics *obs.Registry

	// CapSchedule, when non-nil, makes the power cap dynamic: it maps
	// virtual time to the *target* cap in watts (demand-response ramps,
	// price/carbon step schedules). The controller tracks the target
	// with a ramp-rate limit rather than jumping — see EffectiveCap.
	// Admission, reactive capping and cap-violation accounting all run
	// against the tracked cap; Config.PowerCapW stays the nominal cap
	// (the fail-fast schedulability check and result summary use it).
	CapSchedule func(t float64) float64
	// CapRampWPerS bounds how fast the tracked cap moves toward the
	// schedule target, in watts per virtual second (0 = jump to the
	// target each tick). Rate-limiting is what keeps a step schedule
	// from instantly stranding admitted work above the new cap.
	CapRampWPerS float64
	// BrownoutStaleFrac, when > 0, arms the brownout/degraded mode:
	// when the fraction of per-node telemetry reads holding stale
	// values reaches this threshold in a tick, admission tightens to
	// brownoutCapFrac of the tracked cap instead of silently trusting
	// held measurements. Brownout releases with hysteresis, once the
	// stale fraction falls to half the threshold.
	BrownoutStaleFrac float64
}

const (
	// headReserveTicks bounds starvation under power-aware backfill: once
	// the queue head has waited this many ticks, backfill pauses until it
	// starts.
	headReserveTicks = 60
	// settleTicks bounds how long a completion's accounting waits for
	// telemetry newer than the job's end before measuring anyway. A
	// record built once every participating node has reported past the
	// job's end is stable: no late-arriving sample can change its energy
	// integral.
	settleTicks = 8
	// maxTicks aborts a run that cannot finish — e.g. a cap no pending
	// job fits under.
	maxTicks = 200000
	// brownoutCapFrac is the admission tightening applied while browned
	// out: admit only to 85% of the cap.
	brownoutCapFrac = 0.85
)

// withDefaults fills unset tuning fields.
func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.TickS == 0 {
		c.TickS = 30
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c ControllerConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	switch {
	case !nonNegFinite(c.TickS):
		return fmt.Errorf("sched: tick period %g s is not a finite value >= 0", c.TickS)
	case c.Admission != AdmitFIFO && c.Admission != AdmitPowerAware:
		return fmt.Errorf("sched: unknown admission discipline %d", int(c.Admission))
	case !nonNegFinite(c.CapRampWPerS):
		return fmt.Errorf("sched: cap ramp rate %g W/s is not a finite value >= 0", c.CapRampWPerS)
	case !(c.BrownoutStaleFrac >= 0 && c.BrownoutStaleFrac <= 1):
		return fmt.Errorf("sched: BrownoutStaleFrac %g out of [0, 1]", c.BrownoutStaleFrac)
	}
	if c.CapSchedule != nil && c.PowerCapW <= 0 {
		return errors.New("sched: CapSchedule needs a nominal power cap")
	}
	if c.PowerAware() {
		return powerAwareNeeds(c.PowerCapW, c.Estimator != nil || c.Trainer != nil)
	}
	return nil
}

// PowerAware reports whether the configured discipline consults per-job
// power predictions. Power-aware configurations need an estimator or
// trainer (core.RunLive wires the system predictor when neither is set).
func (c ControllerConfig) PowerAware() bool { return c.strategy().PowerAware() }

// strategy resolves the dispatch discipline: the configured Strategy,
// or the built-in one matching Admission.
func (c ControllerConfig) strategy() Strategy {
	if c.Strategy != nil {
		return c.Strategy
	}
	if c.Admission == AdmitPowerAware {
		return powerAwareStrategy{}
	}
	return fifoStrategy{}
}

// ControllerResult extends the batch metrics with the live plane's
// telemetry-facing counters.
type ControllerResult struct {
	Result
	// Ticks is the number of control periods executed.
	Ticks int
	// FreshReads / StaleReads count per-node tick reads that delivered
	// fresh samples vs. holds of the last measured value (telemetry
	// loss, the hold-last-safe path).
	FreshReads int
	StaleReads int
	// RefusedAdmissions counts dispatch attempts refused for lack of
	// power headroom.
	RefusedAdmissions int
	// MeasuredEnergyJ is the telemetry-derived machine energy over the
	// run (sum of per-node store integrals; EnergyJ is the analytic
	// effective truth).
	MeasuredEnergyJ float64
	// MeasuredCapViolationSec counts ticks whose *measured* power
	// exceeded the cap; CapViolationSec (in Result) counts the true
	// effective power.
	MeasuredCapViolationSec float64
	// MaxOverPct is the worst true overshoot above the cap in percent.
	MaxOverPct float64
	// MeasureFailures counts completions whose telemetry-derived energy
	// record could not be built (severe loss); such jobs skip retraining.
	MeasureFailures int
	// Retrains is the online predictor's refit count (0 without Trainer).
	Retrains int
	// BrownoutTransitions counts brownout mode changes (engage +
	// release each count one); BrownoutTicks counts ticks spent
	// browned out. Both zero unless BrownoutStaleFrac armed the mode.
	BrownoutTransitions int
	BrownoutTicks       int
	// FinalCapW is the tracked effective cap at the end of the run
	// (== PowerCapW without a CapSchedule).
	FinalCapW float64
}

// Controller runs the closed-loop power-aware scheduler: the scheduler
// core driven tick by tick against measured power.
type Controller struct {
	*machine
	cfg   ControllerConfig
	src   TelemetrySource
	hooks Hooks
	speed float64 // reactive execution speed for the *next* tick

	// Telemetry view: last fresh per-node mean power, the ingested
	// sample count at the last fresh read (freshness detection), and the
	// start of each node's newest fresh window (accounting settlement).
	lastSeen    []float64
	seen        []int
	lastFreshT0 []float64

	// measureQ holds completed jobs whose accounting waits for
	// post-completion telemetry (see settleTicks).
	measureQ []measureItem

	ledger *accounting.Ledger
	trace  *sensor.Piecewise

	fresh, stale    int
	measureFailures int
	capViolSec      float64
	capOverSq       float64
	measViolSec     float64
	maxOverPct      float64
	consumed        bool

	// Dynamic-cap tracking state: capNow is the ramp-limited effective
	// cap; trim is the anti-windup integral admission correction (a
	// fraction of capNow held back while measured power persistently
	// overshoots); brownout is the stale-telemetry degraded mode.
	capNow        float64
	trim          float64
	brownout      bool
	brownoutTrans int
	brownoutTicks int

	// met mirrors the counters above into a registry (nil without
	// ControllerConfig.Metrics).
	met *schedMetrics
}

// schedMetrics is the registry view of the controller's health counters.
type schedMetrics struct {
	ticks           *obs.Counter
	freshReads      *obs.Counter
	staleReads      *obs.Counter
	refused         *obs.Counter
	measureFailures *obs.Counter
	brownoutTrans   *obs.Counter
}

func newSchedMetrics(reg *obs.Registry) *schedMetrics {
	return &schedMetrics{
		ticks:           reg.CounterOf("davide_sched_ticks_total"),
		freshReads:      reg.CounterOf("davide_sched_fresh_reads_total"),
		staleReads:      reg.CounterOf("davide_sched_stale_reads_total"),
		refused:         reg.CounterOf("davide_sched_refused_admissions_total"),
		measureFailures: reg.CounterOf("davide_sched_measure_failures_total"),
		brownoutTrans:   reg.CounterOf("davide_sched_brownout_transitions_total"),
	}
}

// NewController validates the configuration and prepares a live run over
// the jobs, reading telemetry from src and publishing through hooks.
func NewController(cfg ControllerConfig, jobs []workload.Job, src TelemetrySource, hooks Hooks) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, errors.New("sched: nil telemetry source")
	}
	if hooks.StreamTick == nil {
		return nil, errors.New("sched: StreamTick hook required")
	}
	estimate := cfg.Estimator
	if cfg.Trainer != nil {
		estimate = cfg.Trainer.Predict
	}
	m, err := newMachine(cfg.Config, cfg.strategy(), estimate, headReserveTicks*cfg.TickS, jobs)
	if err != nil {
		return nil, err
	}
	c := &Controller{machine: m, cfg: cfg, src: src, hooks: hooks, speed: 1,
		capNow: cfg.PowerCapW, ledger: accounting.NewLedger()}
	if cfg.Metrics != nil {
		c.met = newSchedMetrics(cfg.Metrics)
	}
	c.lastSeen = make([]float64, cfg.Nodes)
	c.seen = make([]int, cfg.Nodes)
	c.lastFreshT0 = make([]float64, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		// Before any telemetry exists the machine is provably idle.
		c.lastSeen[n] = cfg.IdleNodePowerW
		c.lastFreshT0[n] = -1
	}
	c.trace = sensor.NewPiecewise(0, cfg.IdleNodePowerW*float64(cfg.Nodes))
	return c, nil
}

// Ledger returns the telemetry-derived energy-accounting ledger the run
// fills as jobs complete (the paper's EA agent view of the machine).
func (c *Controller) Ledger() *accounting.Ledger { return c.ledger }

// EffectiveCap returns the cap the controller is currently enforcing:
// the ramp-limited tracker of CapSchedule, or the nominal PowerCapW
// without one. Per-rack capping loops retarget from this each tick
// (see internal/core's live wiring).
func (c *Controller) EffectiveCap() float64 { return c.capNow }

// trackCap advances the effective cap one tick toward the schedule
// target, ramp-rate limited and clamped above the machine idle floor
// (a cap below idle is unenforceable — the capping actuators reject
// it). With no schedule the effective cap stays pinned at the nominal
// cap, keeping legacy runs bit-identical.
func (c *Controller) trackCap(t float64) {
	if c.cfg.CapSchedule == nil || c.cfg.PowerCapW <= 0 {
		return
	}
	target := c.cfg.CapSchedule(t)
	if idle := float64(c.cfg.Nodes) * c.cfg.IdleNodePowerW; target < idle {
		target = idle
	}
	if c.cfg.CapRampWPerS <= 0 {
		c.capNow = target
		return
	}
	maxStep := c.cfg.CapRampWPerS * c.cfg.TickS
	switch d := target - c.capNow; {
	case d > maxStep:
		c.capNow += maxStep
	case d < -maxStep:
		c.capNow -= maxStep
	default:
		c.capNow = target
	}
}

// admitCap is the cap admission runs against this tick: the tracked
// cap, tightened by brownout mode and the anti-windup trim. Both
// corrections are zero in legacy runs.
func (c *Controller) admitCap() float64 {
	capW := c.capNow
	if c.brownout {
		capW *= brownoutCapFrac
	}
	if c.trim > 0 {
		capW *= 1 - c.trim
	}
	return capW
}

// measuredTotal is the controller's belief about current machine power:
// the sum of the newest per-node measurements, stale nodes held at their
// last fresh value.
func (c *Controller) measuredTotal() float64 {
	t := 0.0
	for _, v := range c.lastSeen {
		t += v
	}
	return t
}

// belief is what admission holds against the cap: the measured total
// plus the predicted draw of running jobs the telemetry has not yet
// measured (started less than a tick ago, or started into a window that
// was lost). Without that delta, a job admitted last tick would not
// count against headroom until its power shows up in the store.
func (c *Controller) belief() float64 {
	invisibleDelta := 0.0
	for _, r := range c.running {
		if !r.visible && r.predicted > 0 {
			invisibleDelta += (r.predicted - c.cfg.IdleNodePowerW) * float64(r.job.Nodes)
		}
	}
	return c.measuredTotal() + invisibleDelta
}

// levels returns each node's true effective power for the coming tick:
// idle plus the resident job's dynamic share, stretched by the reactive
// capping speed.
func (c *Controller) levels() []float64 {
	out := make([]float64, c.cfg.Nodes)
	for n := range out {
		out[n] = c.cfg.IdleNodePowerW
	}
	for _, r := range c.running {
		dyn := (r.job.TruePowerPerNode - c.cfg.IdleNodePowerW) * c.speed
		for _, n := range r.nodes {
			out[n] = c.cfg.IdleNodePowerW + dyn
		}
	}
	return out
}

// observe reads the tick's telemetry back from the store. A node whose
// ingested sample count did not grow delivered nothing this tick: its
// last measurement is held (the capping loop's hold-last-safe rule) and
// the hold is counted.
func (c *Controller) observe(t0, t1 float64) {
	freshNodes := make([]bool, c.cfg.Nodes)
	staleTick := 0
	for n := 0; n < c.cfg.Nodes; n++ {
		cnt := c.src.IngestedSamples(n)
		if cnt > c.seen[n] {
			if v, err := c.src.MeanPower(n, t0, t1); err == nil {
				c.lastSeen[n] = v
				c.seen[n] = cnt
				c.lastFreshT0[n] = t0
				c.fresh++
				if c.met != nil {
					c.met.freshReads.Inc()
				}
				freshNodes[n] = true
				continue
			}
		}
		c.stale++
		staleTick++
		if c.met != nil {
			c.met.staleReads.Inc()
		}
	}
	// Brownout hysteresis: engage when the tick's stale fraction
	// reaches the threshold (the hold-last-safe view is now mostly
	// guesswork — tighten admission instead of trusting it), release
	// only once the fraction falls to half the threshold.
	if c.cfg.BrownoutStaleFrac > 0 {
		frac := float64(staleTick) / float64(c.cfg.Nodes)
		switch {
		case !c.brownout && frac >= c.cfg.BrownoutStaleFrac:
			c.brownout = true
			c.brownoutTrans++
			if c.met != nil {
				c.met.brownoutTrans.Inc()
			}
		case c.brownout && frac <= c.cfg.BrownoutStaleFrac/2:
			c.brownout = false
			c.brownoutTrans++
			if c.met != nil {
				c.met.brownoutTrans.Inc()
			}
		}
	}
	if c.brownout {
		c.brownoutTicks++
	}
	// A running job becomes visible once every one of its nodes has
	// reported a window that overlaps its execution.
	for _, r := range c.running {
		if r.visible || r.startAt > t0 {
			continue
		}
		vis := true
		for _, n := range r.nodes {
			if !freshNodes[n] {
				vis = false
				break
			}
		}
		r.visible = vis
	}
}

// updateSpeed recomputes the reactive execution speed for the next tick
// from the tick's *measured* power. Measured power reflects the current
// (already stretched) execution, so the full-speed draw is reconstructed
// before the budget ratio is taken — otherwise the controller would
// oscillate between capped and uncapped ticks.
func (c *Controller) updateSpeed() {
	prev := c.speed
	c.speed = 1
	if c.cfg.ReactiveCapping && c.cfg.PowerCapW > 0 && prev > 0 {
		idle := float64(c.cfg.Nodes) * c.cfg.IdleNodePowerW
		// The budget comes from the *tracked* cap, so reactive capping
		// follows a demand-response ramp down (capNow == PowerCapW in
		// legacy runs).
		budget := c.capNow - idle
		dynFull := (c.measuredTotal() - idle) / prev
		if dynFull > budget {
			if budget <= 0 {
				c.speed = 0.05
			} else {
				c.speed = math.Max(0.05, budget/dynFull)
			}
		}
	}
	c.updateTrim()
}

// updateTrim integrates the anti-windup admission correction under a
// dynamic cap: while measured power persistently overshoots the
// tracked cap, admission headroom is trimmed (so new work stops
// landing on a machine already over its falling cap); when power is
// back under, the trim decays geometrically. The integral freezes
// while the reactive actuator is saturated at its speed floor —
// winding it further could not reduce power any faster, only delay
// recovery after the transient (the classic anti-windup rule).
func (c *Controller) updateTrim() {
	if c.cfg.CapSchedule == nil || c.capNow <= 0 {
		return
	}
	const speedFloor = 0.05
	if over := c.measuredTotal() - c.capNow; over > 0 {
		if !c.cfg.ReactiveCapping || c.speed > speedFloor {
			c.trim = math.Min(0.5, c.trim+0.5*over/c.capNow)
		}
	} else {
		c.trim *= 0.5
		if c.trim < 1e-4 {
			c.trim = 0
		}
	}
}

// advance progresses running jobs by one tick and settles completions at
// the tick boundary, measuring each finished job's energy from telemetry.
func (c *Controller) advance(t1 float64) {
	c.work(c.cfg.TickS * c.speed)
	for _, r := range c.retire(t1) {
		c.measureQ = append(c.measureQ, measureItem{
			js: r, deadline: t1 + settleTicks*c.cfg.TickS,
		})
	}
}

// measureItem is one completed job waiting for its accounting to settle.
type measureItem struct {
	js       *job
	deadline float64
}

// settle measures the completions whose accounting has stabilised: every
// participating node has reported a telemetry window past the job's end
// (so no late-arriving sample can change the energy integral), or the
// settle deadline passed. force measures everything immediately — the
// end-of-run flush, when no further telemetry will ever arrive and the
// store is final by definition.
func (c *Controller) settle(now float64, force bool) error {
	kept := c.measureQ[:0]
	for _, it := range c.measureQ {
		ready := force || now >= it.deadline
		if !ready {
			ready = true
			for _, n := range it.js.nodes {
				if c.lastFreshT0[n] < it.js.endAt {
					ready = false
					break
				}
			}
		}
		if !ready {
			kept = append(kept, it)
			continue
		}
		if err := c.complete(it.js); err != nil {
			return err
		}
	}
	c.measureQ = kept
	return nil
}

// complete builds the finished job's telemetry-derived accounting record
// and feeds the measured per-node power to the online trainer. Severe
// telemetry loss can make the record unbuildable; that degrades
// accounting (counted), never the run.
func (c *Controller) complete(r *job) error {
	rec, err := c.ledger.AddFromSource(c.src, r.job.ID, r.job.User,
		r.job.App.String(), r.nodes, r.startAt, r.endAt)
	if err != nil {
		c.measureFailures++
		if c.met != nil {
			c.met.measureFailures.Inc()
		}
		return nil
	}
	if c.cfg.Trainer == nil {
		return nil
	}
	measured := r.job
	measured.TruePowerPerNode = rec.PerNodePowerW()
	if measured.TruePowerPerNode <= 0 {
		c.measureFailures++
		if c.met != nil {
			c.met.measureFailures.Inc()
		}
		return nil
	}
	// Duration as scheduled (capping may have stretched it); the
	// predictors train on submission-time features plus measured power.
	measured.Duration = r.endAt - r.startAt
	if measured.Duration > measured.WallLimit {
		measured.WallLimit = measured.Duration
	}
	if err := c.cfg.Trainer.Observe(measured); err != nil {
		return err
	}
	return nil
}

// Run executes the closed loop to completion and returns metrics.
func (c *Controller) Run() (*ControllerResult, error) {
	if c.consumed {
		return nil, errors.New("sched: controller already consumed")
	}
	c.consumed = true
	ticks := 0
	for ; c.finished < len(c.jobs); ticks++ {
		if ticks >= maxTicks {
			return nil, fmt.Errorf("sched: run incomplete after %d ticks (%d/%d jobs finished — cap too tight for the workload?)",
				ticks, c.finished, len(c.jobs))
		}
		if c.met != nil {
			c.met.ticks.Inc()
		}
		t0, t1 := c.now, c.now+c.cfg.TickS
		c.trackCap(t0)
		c.arrive(t0)
		refused := c.refused
		if err := c.dispatch(c.belief(), c.admitCap()); err != nil {
			return nil, err
		}
		if c.met != nil {
			c.met.refused.Add(int64(c.refused - refused))
		}
		levels := c.levels()
		if c.hooks.Perturb != nil {
			c.hooks.Perturb(t0, t1, levels)
		}
		trueEff := 0.0
		for _, l := range levels {
			trueEff += l
		}
		if err := c.trace.Set(t0, trueEff); err != nil {
			return nil, err
		}
		if err := c.hooks.StreamTick(t0, t1, levels); err != nil {
			return nil, err
		}
		c.observe(t0, t1)
		if c.cfg.PowerCapW > 0 {
			// Violations are judged against the *tracked* cap — under a
			// demand-response ramp the machine must honour the cap of
			// the moment, not the nominal one.
			if over := trueEff - c.capNow; over > 0 {
				c.capViolSec += c.cfg.TickS
				c.capOverSq += over * over * c.cfg.TickS
				if pct := 100 * over / c.capNow; pct > c.maxOverPct {
					c.maxOverPct = pct
				}
			}
			if c.measuredTotal() > c.capNow {
				c.measViolSec += c.cfg.TickS
			}
		}
		c.advance(t1)
		if err := c.settle(t1, false); err != nil {
			return nil, err
		}
		c.updateSpeed()
		if c.hooks.AfterTick != nil {
			if err := c.hooks.AfterTick(t0, t1); err != nil {
				return nil, err
			}
		}
		c.now = t1
	}
	// Flush the settle queue: the plant has stopped, the store is final.
	if err := c.settle(c.now, true); err != nil {
		return nil, err
	}
	return c.collect(ticks)
}

// collect assembles the final metrics.
func (c *Controller) collect(ticks int) (*ControllerResult, error) {
	outs, err := c.outcomes()
	if err != nil {
		return nil, err
	}
	base, err := summarize(c.label(), outs, c.cfg.Nodes, c.cfg.PowerCapW,
		c.trace, c.capViolSec, c.capOverSq)
	if err != nil {
		return nil, err
	}
	res := &ControllerResult{
		Result:                  *base,
		Ticks:                   ticks,
		FreshReads:              c.fresh,
		StaleReads:              c.stale,
		RefusedAdmissions:       c.refused,
		MeasuredCapViolationSec: c.measViolSec,
		MaxOverPct:              c.maxOverPct,
		MeasureFailures:         c.measureFailures,
		BrownoutTransitions:     c.brownoutTrans,
		BrownoutTicks:           c.brownoutTicks,
		FinalCapW:               c.capNow,
	}
	if c.cfg.Trainer != nil {
		res.Retrains = c.cfg.Trainer.Retrains()
	}
	for n := 0; n < c.cfg.Nodes; n++ {
		if e, err := c.src.Energy(n, 0, res.Makespan); err == nil {
			res.MeasuredEnergyJ += e
		}
	}
	return res, nil
}
