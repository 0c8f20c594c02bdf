package main

import (
	"fmt"
	"math"
	"time"

	"davide/internal/core"
	"davide/internal/sched"
)

// The control-loop workload is the paper's headline loop — stream a tick
// of node power, read it back, admit or hold — run by core.RunLive on
// the 45-node pilot under power-aware admission with reactive capping.
// A round measures the first 80 minutes of virtual time, so a per-tick
// cost that grows with the store's age or the queue's length shows in
// op_growth_x; the fabric workloads, minutes long in virtual time, cannot
// show it.
const (
	controlNodes    = 45
	controlRackSize = 15
	controlCapW     = 48000
	controlTickS    = 15
	controlRate     = 4
	controlJobsN    = 110 // jobs per round; the last one arrives at tick 330
	// controlTicks is how many ticks of a round are measured. How long the
	// queue takes to drain after the last arrival follows the seed, so the
	// measured section stops at a fixed tick and the drain runs untimed:
	// every seed is then measured over the same span of virtual time.
	controlTicks = 320
	paceEvery    = 8 // a reference slice (pace.go) at every paceEvery-th tick boundary
	warmJobs     = 8 // jobs of the untimed warm-up run in set-up
	warmSeed     = 1 // the warm-up's inputs do not follow the run's seed
)

var controlLoopDef = workloadDef{
	name: "control-loop",
	sizes: fmt.Sprintf("nodes=%d racksize=%d cap=%dW tick=%ds rate=%d train=600 jobs/round=%d warm-up jobs=%d",
		controlNodes, controlRackSize, controlCapW, controlTickS, controlRate, controlJobsN, warmJobs),
	tailPct: 95,
	run:     runControlLoop,
}

// timedStrategy decorates a dispatch strategy with a span and a running
// total around every Dispatch call. It forwards everything else, so the
// schedule stays the one the wrapped strategy produces.
type timedStrategy struct {
	sched.Strategy
	tr    *tracer
	tick  int64
	total time.Duration
}

func (s *timedStrategy) Dispatch(env *sched.DispatchEnv) error {
	id := s.tr.begin("sched.Strategy.Dispatch", 0, s.tick)
	t := time.Now()
	err := s.Strategy.Dispatch(env)
	s.total += time.Since(t)
	s.tr.end(id)
	s.tick++
	return err
}

// liveConfig is the closed-loop configuration every control run uses.
// onTick, when non-nil, is called at every tick boundary through a
// Perturb hook that leaves the power levels alone.
func liveConfig(strategy sched.Strategy, onTick func(), onPlant func(core.LivePlant)) core.LiveConfig {
	cfg := core.LiveConfig{
		Nodes:      controlNodes,
		SampleRate: controlRate,
		RackSize:   controlRackSize,
		Sched: sched.ControllerConfig{
			Config:    sched.Config{PowerCapW: controlCapW, ReactiveCapping: true},
			Admission: sched.AdmitPowerAware,
			Strategy:  strategy,
			TickS:     controlTickS,
		},
		OnPlant: onPlant,
	}
	if onTick != nil {
		cfg.Perturb = func(_, _ float64, _ []float64) { onTick() }
	}
	return cfg
}

// checkLive applies the clean-path checks to a finished closed-loop run:
// the phase view rebuilt from the store closes against the ledger (E19),
// no read was stale, nothing fell behind the store's sealed horizon, and
// measured energy agrees with the analytic truth.
func checkLive(r *run, res *core.LiveResult, jobs int, label string) float64 {
	r.ok(len(res.JobPhases) == jobs, "%s: %d of %d job phases rebuilt", label, len(res.JobPhases), jobs)
	for id, ph := range res.JobPhases {
		rec, err := res.Ledger.Job(id)
		if err != nil {
			r.ok(false, "%s: job %d missing from ledger: %v", label, id, err)
			continue
		}
		r.ok(math.Abs(ph.EnergyJ-rec.EnergyJ) <= 1e-6*math.Max(1, rec.EnergyJ),
			"%s: job %d phase energy %.3f J != ledger %.3f J", label, id, ph.EnergyJ, rec.EnergyJ)
	}
	r.ok(res.StaleReads == 0, "%s: %d stale reads on clean transport", label, res.StaleReads)
	r.ok(res.StoreOutOfOrderDropped == 0, "%s: store dropped %d samples behind the sealed horizon", label, res.StoreOutOfOrderDropped)
	r.ok(res.BrokerDropped == 0, "%s: broker dropped %d messages", label, res.BrokerDropped)
	r.ok(res.MeasureFailures == 0, "%s: %d completions could not be measured", label, res.MeasureFailures)
	errPct := 100 * math.Abs(res.MeasuredEnergyJ-res.EnergyJ) / res.EnergyJ
	r.ok(errPct <= maxEnergyErrPct, "%s: measured energy off by %.4f %% (bound %.1f %%)", label, errPct, maxEnergyErrPct)
	return errPct
}

func runControlLoop(r *run) error {
	var first *core.LiveResult
	for round := 0; r.more(); round++ {
		// Set-up: run a short untimed closed loop, so the first timed tick
		// does not pay for cold code paths and a cold allocator, then draw
		// the jobs and train the predictor. The warm-up's inputs are fixed
		// so that set-up does the same work whatever the seed.
		t := time.Now()
		if err := warmUp(); err != nil {
			return err
		}
		train, work, err := controlJobs(r.cfg.seed, controlJobsN)
		if err != nil {
			return err
		}
		sys, err := core.NewSystem(train)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(t).Seconds())

		strat := &timedStrategy{Strategy: sched.NewPowerAwareStrategy(), tr: r.tr}
		// A tick runs from one boundary to the next; the measured section
		// ends at the boundary that closes tick controlTicks. Every
		// paceEvery-th boundary also runs a reference slice, so a boundary
		// has two stamps: where the tick before it ended and where the
		// tick after it starts.
		ends := make([]time.Time, 0, controlTicks+1)
		starts := make([]time.Time, 0, controlTicks+1)
		sec := r.begin()
		res, err := sys.RunLive(work, liveConfig(strat, func() {
			if len(ends) > controlTicks {
				return
			}
			ends = append(ends, time.Now())
			if len(ends) == controlTicks+1 {
				sec.end(controlTicks)
				return
			}
			if len(ends)%paceEvery == 1 {
				r.pace()
			}
			starts = append(starts, time.Now())
		}, nil))
		if err != nil {
			return err
		}
		if len(ends) <= controlTicks {
			return fmt.Errorf("round %d: the run ended after %d ticks, before the %d measured ones", round, res.Ticks, controlTicks)
		}
		lat := make([]float64, 0, controlTicks)
		for i, t := range starts {
			lat = append(lat, ms(ends[i+1].Sub(t)))
			r.tr.add("core.tick", 0, int64(i), t, ends[i+1])
		}
		r.rounds = append(r.rounds, lat)

		errPct := checkLive(r, res, len(work), fmt.Sprintf("round %d", round))
		if first == nil {
			first = res
			r.layer["check.energy_err_pct"] = errPct
			r.layer["check.cap_over_pct"] = res.MaxOverPct
			r.layer["sched.ticks"] = float64(res.Ticks)
			r.layer["sched.retrains"] = float64(res.Retrains)
			r.layer["sched.stale_reads"] = float64(res.StaleReads)
			r.layer["mqtt.broker_dropped"] = float64(res.BrokerDropped)
			r.layer["telemetry.reordered"] = float64(res.ReorderedBatches)
			r.layer["telemetry.dropped"] = float64(res.UndecodableDropped)
			r.layer["gateway.wire_bytes_per_sample"] = res.WireBytesPerSample
			r.exact("ticks=%d retrains=%d refused=%d makespan_s=%v measured_energy_bits=%#016x cap_over_pct=%v energy_err_pct=%v",
				res.Ticks, res.Retrains, res.RefusedAdmissions, res.Makespan, math.Float64bits(res.MeasuredEnergyJ), res.MaxOverPct, errPct)
		} else {
			// Same seed, same schedule: every round must repeat the first.
			r.ok(res.Ticks == first.Ticks && res.MeasuredEnergyJ == first.MeasuredEnergyJ && res.MaxOverPct == first.MaxOverPct,
				"round %d diverged from round 0: ticks %d/%d energy %v/%v", round, res.Ticks, first.Ticks, res.MeasuredEnergyJ, first.MeasuredEnergyJ)
		}
		r.layer["sched.dispatch_us_per_tick"] = us(strat.total) / float64(strat.tick)
	}
	if r.cfg.traced {
		return controlLayers(r)
	}
	return nil
}

// warmUp runs a small closed loop end to end and discards it.
func warmUp() error {
	train, work, err := controlJobs(warmSeed, warmJobs)
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(train)
	if err != nil {
		return err
	}
	if _, err := sys.RunLive(work, liveConfig(nil, nil, nil)); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	return nil
}
