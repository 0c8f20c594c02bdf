package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"davide/internal/predictor"
	"davide/internal/workload"
)

// The tests here exist because both drivers dispatch through one core:
// the batch Simulator and the live Controller must agree wherever their
// physics do, a power-aware variant must vanish when the cap cannot
// bind, and every strategy must run on either driver.

// oracleEstimator predicts the job's true per-node power.
func oracleEstimator(j workload.Job) (float64, error) { return j.TruePowerPerNode, nil }

// orderAndPowerVariant pairs each queue order with its power-aware
// variant (constructors: a Strategy instance serves one run).
var orderAndPowerVariant = [][2]func() Strategy{
	{NewFIFOStrategy, NewFIFOPowerStrategy},
	{NewEASYStrategy, NewEASYPowerStrategy},
	{NewSJFStrategy, NewSJFPowerStrategy},
}

// neverBindsW is a machine cap no workload here can reach.
const neverBindsW = 1e12

// tickAlignedJobs draws a workload whose submit times, durations and
// wall limits are multiples of tickS and whose powers are whole watts,
// so event-driven and tick-driven time coincide and every power sum is
// exact in float64.
func tickAlignedJobs(seed int64, n, machineNodes int, tickS float64) []workload.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]workload.Job, n)
	at := 0.0
	for i := range jobs {
		dur := tickS * float64(1+rng.Intn(30))
		jobs[i] = workload.Job{
			ID: i, User: i % 5, App: workload.Generic,
			Nodes:            1 + rng.Intn(machineNodes),
			SubmitAt:         at,
			Duration:         dur,
			WallLimit:        dur + tickS*float64(rng.Intn(20)),
			TruePowerPerNode: 500 + 100*float64(rng.Intn(15)),
		}
		at += tickS * float64(rng.Intn(4))
	}
	return jobs
}

// TestSimulatorControllerTwin is the differential twin (ROADMAP 3d): on
// tick-aligned workloads with a cap that never binds, the event-driven
// Simulator and the tick-driven Controller (perfect telemetry) must
// produce the same schedule, node assignment and metrics, exactly.
func TestSimulatorControllerTwin(t *testing.T) {
	const nodes, tickS = 8, 10.0
	cfg := Config{Nodes: nodes, IdleNodePowerW: 360, PowerCapW: neverBindsW, Estimator: oracleEstimator}
	seeds := int64(30)
	if testing.Short() {
		seeds = 10 // the race detector makes the store appends slow
	}
	for seed := int64(1); seed <= seeds; seed++ {
		jobs := tickAlignedJobs(seed, 60, nodes, tickS)
		for _, pair := range orderAndPowerVariant {
			for _, newStrategy := range pair {
				twinRun(t, fmt.Sprintf("seed %d %s", seed, newStrategy().Name()), cfg, tickS, newStrategy, jobs)
			}
		}
	}
}

// twinRun runs one workload on both drivers and requires equal outcomes.
func twinRun(t *testing.T, name string, cfg Config, tickS float64, newStrategy func() Strategy, jobs []workload.Job) {
	t.Helper()
	sim, err := NewSimulator(cfg, newStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := sim.Run()
	if err != nil {
		t.Fatalf("%s: simulator: %v", name, err)
	}
	plant := newDirectPlant(0.2) // two samples per tick: freshness needs no more
	ctl, err := NewController(ControllerConfig{Config: cfg, Strategy: newStrategy(), TickS: tickS},
		jobs, plant.db, plant.hooks())
	if err != nil {
		t.Fatal(err)
	}
	live, err := ctl.Run()
	if err != nil {
		t.Fatalf("%s: controller: %v", name, err)
	}
	if !reflect.DeepEqual(batch.Starts, live.Starts) || !reflect.DeepEqual(batch.Ends, live.Ends) {
		t.Fatalf("%s: schedules differ\n batch starts %v\n live starts  %v", name, batch.Starts, live.Starts)
	}
	if !reflect.DeepEqual(sim.Assignments(), ctl.Assignments()) {
		t.Fatalf("%s: node assignments differ", name)
	}
	if batch.MeanWait != live.MeanWait || batch.EnergyJ != live.EnergyJ || batch.UtilizationPct != live.UtilizationPct {
		t.Fatalf("%s: metrics differ: wait %v/%v energy %v/%v util %v/%v", name,
			batch.MeanWait, live.MeanWait, batch.EnergyJ, live.EnergyJ, batch.UtilizationPct, live.UtilizationPct)
	}
}

// TestPowerVariantVanishesWithoutCapPressure is the control where the
// effect must vanish (ROADMAP 3b): when the cap cannot bind, power-aware
// admission must not move a single start, end or node.
func TestPowerVariantVanishesWithoutCapPressure(t *testing.T) {
	cfg := Config{Nodes: 45, IdleNodePowerW: 360, PowerCapW: neverBindsW, Estimator: oracleEstimator}
	for _, seed := range []int64{3, 21, 77} {
		jobs := genJobs(t, 250, seed)
		for _, pair := range orderAndPowerVariant {
			var res [2]*Result
			var assign [2]map[int][]int
			for k, newStrategy := range pair {
				sim, err := NewSimulator(cfg, newStrategy(), jobs)
				if err != nil {
					t.Fatal(err)
				}
				if res[k], err = sim.Run(); err != nil {
					t.Fatalf("seed %d %s: %v", seed, newStrategy().Name(), err)
				}
				assign[k] = sim.Assignments()
			}
			if !reflect.DeepEqual(res[0].Starts, res[1].Starts) || !reflect.DeepEqual(res[0].Ends, res[1].Ends) ||
				!reflect.DeepEqual(assign[0], assign[1]) {
				t.Errorf("seed %d: %s and %s schedules differ under a cap that cannot bind",
					seed, res[0].Policy, res[1].Policy)
			}
		}
	}
}

// TestEveryStrategyRunsOnSimulator runs each tournament strategy and the
// two batch-only power variants on the event-driven driver: a capped
// 150-job workload must complete and, with reactive capping on, never
// spend a second above the cap.
func TestEveryStrategyRunsOnSimulator(t *testing.T) {
	jobs := genJobs(t, 150, 33)
	cfg := Config{
		Nodes: 45, IdleNodePowerW: 360, PowerCapW: 45 * 1000,
		ReactiveCapping: true, Estimator: trainedEstimator(t),
	}
	strategies := []Strategy{
		NewFIFOStrategy(), NewSJFStrategy(), NewEASYStrategy(),
		NewPowerAwareStrategy(), NewSJFPowerStrategy(),
		NewWeightedStrategy(WeightedConfig{}), NewEDFStrategy(0),
		NewFIFOPowerStrategy(), NewEASYPowerStrategy(),
	}
	for _, strategy := range strategies {
		sim, err := NewSimulator(cfg, strategy, jobs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Errorf("%s: %v", strategy.Name(), err)
			continue
		}
		if len(res.Ends) != len(jobs) {
			t.Errorf("%s: %d of %d jobs finished", strategy.Name(), len(res.Ends), len(jobs))
		}
		if res.CapViolationSec != 0 {
			t.Errorf("%s: %g s above the cap despite reactive capping", strategy.Name(), res.CapViolationSec)
		}
	}
}

// TestE8Golden pins experiment E8's table exactly as cmd/expgen prints
// it (same workload, predictor, cap and configurations), so "E8 did not
// move" is asserted by the suite rather than by a manual diff.
func TestE8Golden(t *testing.T) {
	g, err := workload.NewGenerator(workload.DefaultGeneratorConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := g.Batch(300)
	if err != nil {
		t.Fatal(err)
	}
	hg, err := workload.NewGenerator(workload.DefaultGeneratorConfig(777))
	if err != nil {
		t.Fatal(err)
	}
	hist, err := hg.Batch(1500)
	if err != nil {
		t.Fatal(err)
	}
	p := predictor.NewMeanPerKey()
	if err := p.Train(hist); err != nil {
		t.Fatal(err)
	}
	pred := p.Predict
	const capW = 45 * 1150.0
	fifo, easy, easyPower := NewFIFOStrategy(), NewEASYStrategy(), NewEASYPowerStrategy()
	rows := []struct {
		name     string
		strategy Strategy
		cfg      Config
		want     string
	}{
		{"FCFS uncapped", fifo, Config{Nodes: 45, IdleNodePowerW: 360},
			"11.40 | 37.52 | 203.6 | 88.3 | 0.0"},
		{"EASY uncapped", easy, Config{Nodes: 45, IdleNodePowerW: 360},
			"7.57 | 27.04 | 148.2 | 90.1 | 0.0"},
		{"EASY cap-ignored", easy, Config{Nodes: 45, PowerCapW: capW, IdleNodePowerW: 360},
			"7.57 | 27.04 | 148.2 | 90.1 | 63155.9"},
		{"EASY reactive-only", easy, Config{Nodes: 45, PowerCapW: capW, ReactiveCapping: true, IdleNodePowerW: 360},
			"8.88 | 34.33 | 209.0 | 93.6 | 0.0"},
		{"EASY proactive (predictor)", easyPower, Config{Nodes: 45, PowerCapW: capW, Estimator: pred, IdleNodePowerW: 360},
			"12.54 | 50.43 | 221.2 | 78.5 | 22685.2"},
		{"EASY proactive+reactive", easyPower, Config{Nodes: 45, PowerCapW: capW, Estimator: pred, ReactiveCapping: true, IdleNodePowerW: 360},
			"12.16 | 48.53 | 221.9 | 78.9 | 0.0"},
		{"EASY proactive (oracle)", easyPower, Config{Nodes: 45, PowerCapW: capW, Estimator: oracleEstimator, IdleNodePowerW: 360},
			"11.21 | 43.87 | 205.4 | 81.6 | 0.0"},
	}
	for _, row := range rows {
		sim, err := NewSimulator(row.cfg, row.strategy, jobs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		got := fmt.Sprintf("%.2f | %.2f | %.1f | %.1f | %.1f",
			res.MeanSlowdown, res.P95Slowdown, res.MeanWait/60, res.UtilizationPct, res.CapViolationSec)
		if got != row.want {
			t.Errorf("E8 row %q moved:\n got  %s\n want %s", row.name, got, row.want)
		}
	}
}
