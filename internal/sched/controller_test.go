package sched

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"davide/internal/tsdb"
	"davide/internal/workload"
)

func TestControllerConfigValidation(t *testing.T) {
	est := func(workload.Job) (float64, error) { return 1000, nil }
	ok := Config{Nodes: 8, PowerCapW: 10000, Estimator: est}
	cases := []struct {
		name    string
		cfg     ControllerConfig
		wantErr string
	}{
		{"ok-fifo", ControllerConfig{Config: Config{Nodes: 8}}, ""},
		{"ok-power", ControllerConfig{Config: ok, Strategy: NewPowerAwareStrategy()}, ""},
		{"base-config-checked", ControllerConfig{Config: Config{Nodes: 0}}, "at least one node"},
		{"negative-tick", ControllerConfig{Config: ok, TickS: -1}, "tick period -1"},
		// NaN passes every `x < 0` test; a NaN cap never admits a job.
		{"nan-tick", ControllerConfig{Config: ok, TickS: math.NaN()}, "tick period NaN"},
		{"inf-tick", ControllerConfig{Config: ok, TickS: math.Inf(1)}, "tick period +Inf"},
		{"nan-cap", ControllerConfig{Config: Config{Nodes: 8, PowerCapW: math.NaN(), Estimator: est}}, "power cap NaN"},
		{"nan-ramp", ControllerConfig{Config: ok, CapRampWPerS: math.NaN()}, "cap ramp rate NaN"},
		{"nan-brownout", ControllerConfig{Config: ok, BrownoutStaleFrac: math.NaN()}, "BrownoutStaleFrac NaN"},
		{"power-without-cap", ControllerConfig{
			Config: Config{Nodes: 8, Estimator: est}, Strategy: NewPowerAwareStrategy()}, "needs a power cap"},
		{"power-without-estimator", ControllerConfig{
			Config: Config{Nodes: 8, PowerCapW: 10000}, Strategy: NewPowerAwareStrategy()}, "estimator or trainer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// directPlant wires a Controller to a tsdb store with no transport in
// between: StreamTick appends perfect samples on the ADC grid (floor(
// (t1-t0)*rate) samples from t0 at 1/rate spacing), optionally dropping
// whole node-windows to emulate telemetry loss.
type directPlant struct {
	db    *tsdb.DB
	rate  float64
	drop  func(tick, node int) bool
	ticks int
	// levels[tick][node] records what was streamed, for truth checks.
	levels [][]float64
	t0s    []float64
}

func newDirectPlant(rate float64) *directPlant {
	return &directPlant{db: tsdb.New(tsdb.Options{}), rate: rate}
}

func (p *directPlant) hooks() Hooks {
	return Hooks{StreamTick: func(t0, t1 float64, levels []float64) error {
		tick := p.ticks
		p.ticks++
		p.levels = append(p.levels, append([]float64(nil), levels...))
		p.t0s = append(p.t0s, t0)
		n := int(math.Floor((t1 - t0) * p.rate))
		dt := 1 / p.rate
		buf := make([]float64, n)
		for node, w := range levels {
			if p.drop != nil && p.drop(tick, node) {
				continue
			}
			for i := range buf {
				buf[i] = w
			}
			p.db.AppendBatch(node, t0, dt, buf)
		}
		return nil
	}}
}

// ctlJobs builds a deterministic oversubscribing workload: 12 jobs of
// 1-3 nodes at 1.5-1.9 kW per node on an 8-node machine.
func ctlJobs() []workload.Job {
	var jobs []workload.Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, workload.Job{
			ID: i, User: i % 3, App: workload.Generic,
			Nodes:            1 + i%3,
			SubmitAt:         float64(i) * 20,
			Duration:         200 + float64(i%4)*60,
			WallLimit:        900,
			TruePowerPerNode: 1500 + float64(i%5)*100,
		})
	}
	return jobs
}

func TestControllerFIFOViolatesCapPowerAwareHolds(t *testing.T) {
	const capW = 8 * 1100 // idle 360*8 plus room for ~4 hot nodes
	run := func(cfg ControllerConfig) *ControllerResult {
		plant := newDirectPlant(2)
		cfg.Config = Config{
			Nodes: 8, PowerCapW: capW, IdleNodePowerW: 360,
			ReactiveCapping: cfg.PowerAware(),
			// Exact estimator: isolates the control loop from
			// prediction error.
			Estimator: func(j workload.Job) (float64, error) { return j.TruePowerPerNode, nil },
		}
		cfg.TickS = 10
		c, err := NewController(cfg, ctlJobs(), plant.db, plant.hooks())
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fifo := run(ControllerConfig{Strategy: mustLookup(t, "fifo")})
	power := run(ControllerConfig{Strategy: mustLookup(t, "power")})
	// The deprecated shim bench/ sets — a nil Strategy with the
	// AdmitPowerAware Admission — must stay "power" bit for bit.
	if shim := run(ControllerConfig{Admission: AdmitPowerAware}); !reflect.DeepEqual(shim, power) {
		t.Errorf("Admission shim diverged from Lookup(\"power\"):\nshim  %+v\npower %+v", shim, power)
	}
	if fifo.CapViolationSec == 0 || fifo.MaxOverPct < 10 {
		t.Errorf("FIFO should blow through the cap: viol=%gs over=%g%%", fifo.CapViolationSec, fifo.MaxOverPct)
	}
	if power.CapViolationSec != 0 {
		t.Errorf("power-aware with an exact estimator on clean telemetry violated the cap for %gs (max over %g%%)",
			power.CapViolationSec, power.MaxOverPct)
	}
	if power.StaleReads != 0 {
		t.Errorf("clean plant produced %d stale reads", power.StaleReads)
	}
	// Clean, noiseless telemetry: measured energy equals the analytic
	// effective trace exactly (same rectangles).
	if d := math.Abs(power.MeasuredEnergyJ-power.EnergyJ) / power.EnergyJ; d > 1e-9 {
		t.Errorf("measured energy off by %g relative", d)
	}
	if fifo.Makespan >= power.Makespan {
		t.Errorf("admission control should stretch the schedule: fifo %g >= power %g", fifo.Makespan, power.Makespan)
	}
}

func TestControllerHoldsLastSafeOnTelemetryLoss(t *testing.T) {
	plant := newDirectPlant(2)
	// Node 0 goes dark from tick 5 onward; everything else stays clean.
	plant.drop = func(tick, node int) bool { return node == 0 && tick >= 5 }
	cfg := ControllerConfig{
		Config: Config{
			Nodes: 8, PowerCapW: 8 * 1100, IdleNodePowerW: 360,
			ReactiveCapping: true,
			Estimator:       func(j workload.Job) (float64, error) { return j.TruePowerPerNode, nil },
		},
		Strategy: NewPowerAwareStrategy(),
		TickS:    10,
	}
	c, err := NewController(cfg, ctlJobs(), plant.db, plant.hooks())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleReads != res.Ticks-5 {
		t.Errorf("expected %d stale reads for the dark node, got %d", res.Ticks-5, res.StaleReads)
	}
	// Holding the last measurement (not assuming idle) keeps admission
	// conservative: the cap must still hold on true power.
	if res.CapViolationSec != 0 {
		t.Errorf("cap violated for %gs despite hold-last-safe", res.CapViolationSec)
	}
	if res.MeasureFailures == 0 {
		t.Log("note: all completions still measurable (dark node's jobs ended before blackout)")
	}
}

func TestControllerRejectsUnschedulableJobFast(t *testing.T) {
	plant := newDirectPlant(2)
	jobs := []workload.Job{{
		ID: 1, User: 0, App: workload.Generic, Nodes: 8,
		SubmitAt: 0, Duration: 300, WallLimit: 900,
		TruePowerPerNode: 1800,
	}}
	cfg := ControllerConfig{
		Config: Config{
			// Idle floor 8×360 + (1800-360)×8 = 14400 W > 10 kW cap:
			// the job can never start.
			Nodes: 8, PowerCapW: 10000, IdleNodePowerW: 360,
			Estimator: func(j workload.Job) (float64, error) { return j.TruePowerPerNode, nil },
		},
		Strategy: NewPowerAwareStrategy(),
		TickS:    10,
	}
	c, err := NewController(cfg, jobs, plant.db, plant.hooks())
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run()
	if err == nil || !strings.Contains(err.Error(), "cannot fit under") {
		t.Fatalf("want fast unschedulable-job error, got %v", err)
	}
	if plant.ticks > 1 {
		t.Errorf("burned %d ticks before failing", plant.ticks)
	}
}

// TestLiveTruePowerMatchesStoreMeanPower is the satellite property test:
// across random workloads, every per-tick power level the live plane
// streams must round-trip through the store — db.MeanPower over the tick
// window equals the streamed level exactly on clean telemetry, and the
// rollup-resolution energy agrees with the raw integral to within one
// rollup interval per window boundary.
func TestLiveTruePowerMatchesStoreMeanPower(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		rate := []float64{1, 2, 5}[rng.Intn(3)]
		tick := []float64{10, 15, 30}[rng.Intn(3)]
		nodes := 3 + rng.Intn(5)
		plant := newDirectPlant(rate)
		var jobs []workload.Job
		njobs := 6 + rng.Intn(8)
		at := 0.0
		for i := 0; i < njobs; i++ {
			jobs = append(jobs, workload.Job{
				ID: i, User: i % 4, App: workload.Generic,
				Nodes:            1 + rng.Intn(nodes),
				SubmitAt:         at,
				Duration:         60 + float64(rng.Intn(200)),
				WallLimit:        1000,
				TruePowerPerNode: 800 + 200*float64(rng.Intn(6)),
			})
			at += float64(rng.Intn(40))
		}
		cfg := ControllerConfig{
			Config: Config{Nodes: nodes, IdleNodePowerW: 360},
			TickS:  tick,
		}
		c, err := NewController(cfg, jobs, plant.db, plant.hooks())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		maxW := 0.0
		for k, levels := range plant.levels {
			t0 := plant.t0s[k]
			t1 := t0 + tick
			for n, want := range levels {
				got, err := plant.db.MeanPower(n, t0, t1)
				if err != nil {
					t.Fatalf("trial %d tick %d node %d: %v", trial, k, n, err)
				}
				if math.Abs(got-want) > 1e-9*math.Max(1, want) {
					t.Fatalf("trial %d tick %d node %d: store mean %.6f != streamed level %.6f", trial, k, n, got, want)
				}
				if want > maxW {
					maxW = want
				}
			}
		}
		// Rollup agreement: raw vs 1 s-rollup energy within one rollup
		// interval's worth of power per window boundary.
		const res = 1.0
		for n := 0; n < nodes; n++ {
			t1 := plant.t0s[len(plant.t0s)-1] + tick
			raw, err := plant.db.Energy(n, 0, t1)
			if err != nil {
				t.Fatal(err)
			}
			roll, err := plant.db.EnergyAt(n, 0, t1, res)
			if err != nil {
				t.Fatal(err)
			}
			if tol := 2 * res * maxW; math.Abs(raw-roll) > tol {
				t.Fatalf("trial %d node %d: raw %.1f J vs rollup %.1f J differ beyond one rollup interval (%.1f J)",
					trial, n, raw, roll, tol)
			}
		}
	}
}

func TestControllerRejectsDuplicateJobIDs(t *testing.T) {
	plant := newDirectPlant(2)
	jobs := ctlJobs()
	jobs[3].ID = jobs[2].ID
	_, err := NewController(ControllerConfig{
		Config: Config{Nodes: 8, IdleNodePowerW: 360},
		TickS:  10,
	}, jobs, plant.db, plant.hooks())
	if err == nil || !strings.Contains(err.Error(), "duplicate job ID") {
		t.Fatalf("want duplicate-ID error, got %v", err)
	}
}

// TestControllerFreshnessSurvivesRetention pins the freshness watermark
// to the *ingested* count: raw-retention chunk drops shrink the retained
// count mid-run, which must not read as telemetry loss.
func TestControllerFreshnessSurvivesRetention(t *testing.T) {
	plant := newDirectPlant(5)
	// Aggressive retention: keep only ~4 ticks of raw samples.
	plant.db = tsdb.New(tsdb.Options{ChunkSize: 32, RetainRaw: 40})
	cfg := ControllerConfig{
		Config: Config{Nodes: 4, IdleNodePowerW: 360},
		TickS:  10,
	}
	jobs := []workload.Job{{
		ID: 1, User: 0, App: workload.Generic, Nodes: 2,
		SubmitAt: 0, Duration: 400, WallLimit: 900, TruePowerPerNode: 1200,
	}}
	c, err := NewController(cfg, jobs, plant.db, plant.hooks())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleReads != 0 {
		t.Errorf("retention chunk drops were misread as %d stale telemetry reads", res.StaleReads)
	}
}
