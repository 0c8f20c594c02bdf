package sched

import (
	"math"
	"strings"
	"testing"

	"davide/internal/predictor"
	"davide/internal/workload"
)

// mkJob builds a simple valid job.
func mkJob(id int, submit, dur, wall float64, nodes int, power float64) workload.Job {
	return workload.Job{
		ID: id, User: id % 4, App: workload.Generic, Nodes: nodes,
		SubmitAt: submit, WallLimit: wall, Duration: dur, TruePowerPerNode: power,
	}
}

// genJobs produces a realistic trace for integration-style tests.
func genJobs(t *testing.T, n int, seed int64) []workload.Job {
	t.Helper()
	cfg := workload.DefaultGeneratorConfig(seed)
	cfg.MaxNodes = 8
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := g.Batch(n)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// trainedEstimator returns a predictor-backed estimator trained on a
// disjoint seed.
func trainedEstimator(t *testing.T) func(workload.Job) (float64, error) {
	t.Helper()
	hist := genJobs(t, 1500, 777)
	p := predictor.NewMeanPerKey()
	if err := p.Train(hist); err != nil {
		t.Fatal(err)
	}
	return p.Predict
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"ok", Config{Nodes: 1}, ""},
		{"ok-full", Config{Nodes: 45, PowerCapW: 52000, IdleNodePowerW: 360, ReactiveCapping: true}, ""},
		{"zero-nodes", Config{Nodes: 0}, "at least one node"},
		{"negative-nodes", Config{Nodes: -3}, "at least one node"},
		{"negative-cap", Config{Nodes: 1, PowerCapW: -1}, "power cap -1"},
		{"negative-idle", Config{Nodes: 1, IdleNodePowerW: -1}, "idle power -1"},
		{"nan-cap", Config{Nodes: 1, PowerCapW: math.NaN()}, "power cap NaN"},
		{"inf-cap", Config{Nodes: 1, PowerCapW: math.Inf(1)}, "power cap +Inf"},
		{"nan-idle", Config{Nodes: 1, IdleNodePowerW: math.NaN()}, "idle power NaN"},
		// The first failing field wins: nodes before cap before idle.
		{"nodes-before-cap", Config{Nodes: 0, PowerCapW: -1}, "at least one node"},
		{"cap-before-idle", Config{Nodes: 1, PowerCapW: -1, IdleNodePowerW: -1}, "power cap -1"},
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
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	cfg := Config{Nodes: 4}
	if _, err := NewSimulator(cfg, nil, nil); err == nil {
		t.Error("no jobs should error")
	}
	if _, err := NewSimulator(cfg, nil, []workload.Job{mkJob(0, 0, 10, 20, 8, 1000)}); err == nil {
		t.Error("oversized job should error")
	}
	if _, err := NewSimulator(cfg, nil, []workload.Job{mkJob(0, 0, 0, 20, 1, 1000)}); err == nil {
		t.Error("invalid job should error")
	}
	if _, err := NewSimulator(cfg, nil, []workload.Job{
		mkJob(0, 100, 10, 20, 1, 1000), mkJob(1, 50, 10, 20, 1, 1000),
	}); err == nil {
		t.Error("unsorted jobs should error")
	}
	// A duplicate ID would merge two jobs into one Starts/Ends entry.
	_, err := NewSimulator(cfg, nil, []workload.Job{
		mkJob(7, 0, 10, 20, 1, 1000), mkJob(7, 5, 10, 20, 1, 1000),
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate job ID 7") {
		t.Errorf("duplicate job ID: want an error naming it, got %v", err)
	}
	// A power-aware strategy cannot run without a cap and an estimator.
	one := []workload.Job{mkJob(0, 0, 10, 20, 4, 1800)}
	if _, err := NewSimulator(Config{Nodes: 4, Estimator: oracleEstimator}, NewEASYPowerStrategy(), one); err == nil {
		t.Error("power-aware strategy without a cap should error")
	}
	if _, err := NewSimulator(Config{Nodes: 4, PowerCapW: 5000}, NewEASYPowerStrategy(), one); err == nil {
		t.Error("power-aware strategy without an estimator should error")
	}
	// Never schedulable: idle 4×360 + (1800−360)×4 = 7200 W > 5 kW cap even
	// on an idle machine. The run must say so, not "job 0 never finished".
	sim, err := NewSimulator(Config{
		Nodes: 4, PowerCapW: 5000, IdleNodePowerW: 360, Estimator: oracleEstimator,
	}, NewEASYPowerStrategy(), one)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run()
	for _, want := range []string{"job 0", "1800 W/node", "5000 W cap", "cannot fit under"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("never-schedulable job: error %v does not mention %q", err, want)
		}
	}
}

func TestSingleJobRuns(t *testing.T) {
	sim, err := NewSimulator(Config{Nodes: 4}, nil, []workload.Job{mkJob(0, 10, 100, 200, 2, 1500)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[0] != 10 {
		t.Errorf("start = %v, want 10 (immediate)", res.Starts[0])
	}
	if math.Abs(res.Ends[0]-110) > 1e-6 {
		t.Errorf("end = %v, want 110", res.Ends[0])
	}
	if res.MeanWait != 0 {
		t.Errorf("wait = %v, want 0", res.MeanWait)
	}
	if math.Abs(res.Makespan-110) > 1e-6 {
		t.Errorf("makespan = %v", res.Makespan)
	}
	if res.Jobs != 1 {
		t.Errorf("Jobs = %d", res.Jobs)
	}
}

func TestFCFSOrdering(t *testing.T) {
	// Two 3-node jobs on a 4-node machine: must serialise in order, and a
	// later 1-node job must wait behind the head under FCFS.
	jobs := []workload.Job{
		mkJob(0, 0, 100, 150, 3, 1000),
		mkJob(1, 1, 100, 150, 3, 1000),
		mkJob(2, 2, 10, 20, 1, 1000),
	}
	sim, err := NewSimulator(Config{Nodes: 4}, NewFIFOStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[1] < res.Ends[0] {
		t.Error("job 1 must wait for job 0 under FCFS")
	}
	// Job 2 fits beside job 0 (1 free node) but FCFS blocks behind job 1.
	if res.Starts[2] < res.Starts[1] {
		t.Error("FCFS must not reorder the queue")
	}
}

func TestEASYBackfillsSmallJob(t *testing.T) {
	jobs := []workload.Job{
		mkJob(0, 0, 100, 150, 3, 1000),
		mkJob(1, 1, 100, 150, 3, 1000),
		mkJob(2, 2, 10, 20, 1, 1000), // fits the free node and ends before the shadow
	}
	sim, err := NewSimulator(Config{Nodes: 4}, NewEASYStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Starts[2] > 2+1e-6 {
		t.Errorf("job 2 should backfill immediately, started at %v", res.Starts[2])
	}
	// The head's start must not be delayed by the backfill.
	if res.Starts[1] > res.Ends[0]+1e-6 {
		t.Errorf("backfill delayed the reserved job: start %v vs shadow %v", res.Starts[1], res.Ends[0])
	}
}

func TestEASYBeatsOrMatchesFCFSWait(t *testing.T) {
	jobs := genJobs(t, 300, 5)
	fc, err := NewSimulator(Config{Nodes: 45}, NewFIFOStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	resF, err := fc.Run()
	if err != nil {
		t.Fatal(err)
	}
	ea, err := NewSimulator(Config{Nodes: 45}, NewEASYStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	resE, err := ea.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resE.MeanWait > resF.MeanWait*1.02 {
		t.Errorf("EASY wait %v should not exceed FCFS %v", resE.MeanWait, resF.MeanWait)
	}
	if resE.UtilizationPct < resF.UtilizationPct*0.98 {
		t.Errorf("EASY utilisation %v should not trail FCFS %v", resE.UtilizationPct, resF.UtilizationPct)
	}
}

func TestProactiveCapNeverViolates(t *testing.T) {
	// With oracle predictions (estimator = truth), proactive admission
	// must keep true power at or below the cap for the entire run.
	jobs := genJobs(t, 200, 9)
	oracle := func(j workload.Job) (float64, error) { return j.TruePowerPerNode, nil }
	cap := 45 * 1200.0
	sim, err := NewSimulator(Config{
		Nodes: 45, PowerCapW: cap,
		Estimator: oracle, IdleNodePowerW: 360,
	}, NewEASYPowerStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CapViolationSec > 0 {
		t.Errorf("oracle proactive capping violated the cap for %v s", res.CapViolationSec)
	}
}

func TestReactiveOnlyViolatesButCompletes(t *testing.T) {
	jobs := genJobs(t, 200, 9)
	cap := 45 * 1000.0 // tight cap
	sim, err := NewSimulator(Config{
		Nodes: 45, PowerCapW: cap,
		ReactiveCapping: true, IdleNodePowerW: 360,
	}, NewEASYStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Reactive capping stretches jobs instead of queueing them, so the
	// effective trace respects the cap...
	if res.CapViolationSec > 0 {
		t.Errorf("reactive trace should track the cap, violated %v s", res.CapViolationSec)
	}
	// ...at the cost of a longer makespan than the uncapped baseline.
	free, err := NewSimulator(Config{Nodes: 45, IdleNodePowerW: 360}, NewEASYStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	resFree, err := free.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= resFree.Makespan {
		t.Errorf("reactive-capped makespan %v should exceed uncapped %v", res.Makespan, resFree.Makespan)
	}
}

func TestProactivePredictorKeepsQoSBetterThanReactive(t *testing.T) {
	// The paper's central scheduling claim: prediction-driven proactive
	// dispatch sustains better QoS than reactive-only at the same cap.
	jobs := genJobs(t, 300, 21)
	cap := 45 * 1150.0
	est := trainedEstimator(t)

	pro, err := NewSimulator(Config{
		Nodes: 45, PowerCapW: cap,
		Estimator: est, ReactiveCapping: true, IdleNodePowerW: 360,
	}, NewEASYPowerStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	resPro, err := pro.Run()
	if err != nil {
		t.Fatal(err)
	}
	rea, err := NewSimulator(Config{
		Nodes: 45, PowerCapW: cap,
		ReactiveCapping: true, IdleNodePowerW: 360,
	}, NewEASYStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	resRea, err := rea.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Reactive slows everything; proactive pays with queue waits. The mean
	// bounded slowdowns must stay in the same band (the paper's point is
	// that proactive admission meets the cap without wrecking QoS).
	if resPro.MeanSlowdown > resRea.MeanSlowdown*1.5 {
		t.Errorf("proactive slowdown %v should be competitive with reactive %v",
			resPro.MeanSlowdown, resRea.MeanSlowdown)
	}
	// Both cap-respecting configurations must track the cap.
	if resPro.CapViolationSec > 0.01*resPro.Makespan {
		t.Errorf("proactive+reactive violated cap %v s of %v", resPro.CapViolationSec, resPro.Makespan)
	}
}

func TestCapIgnoredCountsViolations(t *testing.T) {
	// A cap with no mechanism (neither proactive nor reactive) must
	// record violations — the measurement experiment E8 baselines on.
	jobs := genJobs(t, 150, 33)
	sim, err := NewSimulator(Config{
		Nodes: 45, PowerCapW: 45 * 900.0, IdleNodePowerW: 360,
	}, NewEASYStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CapViolationSec == 0 {
		t.Error("ignored cap should record violations")
	}
	if res.CapOverRMSW <= 0 {
		t.Error("violations should have positive RMS overshoot")
	}
	if res.Policy != "live-easy" {
		t.Errorf("policy name = %q", res.Policy)
	}
}

func TestAllJobsComplete(t *testing.T) {
	jobs := genJobs(t, 400, 1)
	for _, strategy := range []Strategy{NewFIFOStrategy(), NewEASYStrategy()} {
		policy := strategy.Name()
		sim, err := NewSimulator(Config{Nodes: 45, IdleNodePowerW: 360}, strategy, jobs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Ends) != len(jobs) {
			t.Fatalf("%v: %d of %d jobs finished", policy, len(res.Ends), len(jobs))
		}
		for id, end := range res.Ends {
			if end < res.Starts[id] {
				t.Fatalf("%v: job %d ends before start", policy, id)
			}
		}
		if res.UtilizationPct <= 0 || res.UtilizationPct > 100 {
			t.Errorf("%v: utilisation %v out of range", policy, res.UtilizationPct)
		}
		if res.EnergyJ <= 0 {
			t.Errorf("%v: energy %v", policy, res.EnergyJ)
		}
		if res.SlowdownGini < 0 || res.SlowdownGini > 1 {
			t.Errorf("%v: Gini %v", policy, res.SlowdownGini)
		}
	}
}

func TestNoStartBeforeSubmit(t *testing.T) {
	jobs := genJobs(t, 200, 8)
	sim, err := NewSimulator(Config{Nodes: 45, IdleNodePowerW: 360}, NewEASYStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if res.Starts[j.ID] < j.SubmitAt-1e-9 {
			t.Fatalf("job %d started %v before submit %v", j.ID, res.Starts[j.ID], j.SubmitAt)
		}
	}
}

func TestSimulatorSingleUse(t *testing.T) {
	jobs := []workload.Job{mkJob(0, 0, 10, 20, 1, 1000)}
	sim, err := NewSimulator(Config{Nodes: 1}, nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Error("second Run should error")
	}
}

func TestEstimatorErrorPropagates(t *testing.T) {
	jobs := []workload.Job{mkJob(0, 0, 10, 20, 1, 1000)}
	bad := func(workload.Job) (float64, error) { return 0, errTest }
	sim, err := NewSimulator(Config{Nodes: 1, PowerCapW: 5000, Estimator: bad}, NewFIFOPowerStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Error("estimator error should propagate")
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "test estimator failure" }
