package sched

import (
	"math"
	"testing"

	"davide/internal/workload"
)

// TestSingleNodeMachine serialises everything.
func TestSingleNodeMachine(t *testing.T) {
	jobs := []workload.Job{
		mkJob(0, 0, 50, 100, 1, 1000),
		mkJob(1, 0, 50, 100, 1, 1000),
		mkJob(2, 0, 50, 100, 1, 1000),
	}
	sim, err := NewSimulator(Config{Nodes: 1}, NewEASYStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-150) > 1e-6 {
		t.Errorf("makespan = %v, want 150", res.Makespan)
	}
	// Strict serialisation in ID order.
	if !(res.Starts[0] < res.Starts[1] && res.Starts[1] < res.Starts[2]) {
		t.Error("single node must serialise in order")
	}
}

// TestSimultaneousArrivals: all jobs submitted at t=0.
func TestSimultaneousArrivals(t *testing.T) {
	var jobs []workload.Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, mkJob(i, 0, 100, 200, 2, 1200))
	}
	sim, err := NewSimulator(Config{Nodes: 10, IdleNodePowerW: 360}, NewEASYStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 20 jobs x 2 nodes on 10 nodes = 4 waves of 5 jobs x 100 s.
	if math.Abs(res.Makespan-400) > 1e-6 {
		t.Errorf("makespan = %v, want 400", res.Makespan)
	}
	if res.UtilizationPct < 99 {
		t.Errorf("utilisation = %v, want ~100%%", res.UtilizationPct)
	}
}

// TestWallLimitEqualsDuration: jobs that use exactly their request.
func TestWallLimitEqualsDuration(t *testing.T) {
	jobs := []workload.Job{
		{ID: 0, Nodes: 2, SubmitAt: 0, WallLimit: 100, Duration: 100, TruePowerPerNode: 1000},
		{ID: 1, Nodes: 2, SubmitAt: 1, WallLimit: 100, Duration: 100, TruePowerPerNode: 1000},
	}
	sim, err := NewSimulator(Config{Nodes: 2}, NewEASYStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Ends[1]-200) > 1e-6 {
		t.Errorf("end = %v, want 200", res.Ends[1])
	}
}

// TestWholeMachineJobs: jobs that need every node.
func TestWholeMachineJobs(t *testing.T) {
	jobs := []workload.Job{
		mkJob(0, 0, 10, 20, 45, 1500),
		mkJob(1, 0, 10, 20, 1, 900), // small job behind a whole-machine job
		mkJob(2, 1, 10, 20, 45, 1500),
	}
	sim, err := NewSimulator(Config{Nodes: 45, IdleNodePowerW: 360}, NewEASYStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 backfills into... nothing (job 0 holds all nodes), so it runs
	// between or after the big jobs; everything must still finish.
	if len(res.Ends) != 3 {
		t.Fatalf("finished = %d", len(res.Ends))
	}
	for id, s := range res.Starts {
		if res.Ends[id] <= s {
			t.Errorf("job %d has empty interval", id)
		}
	}
}

// TestReactiveSpeedFloor: a cap below the idle floor cannot be met; the
// simulator must still terminate (speed floor) and record violations... or
// rather track as close as possible.
func TestReactiveSpeedFloor(t *testing.T) {
	jobs := []workload.Job{mkJob(0, 0, 100, 200, 2, 2000)}
	sim, err := NewSimulator(Config{
		Nodes: 2, PowerCapW: 100, // below 2x360 idle
		ReactiveCapping: true, IdleNodePowerW: 360,
	}, NewEASYStrategy(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 100 {
		t.Error("impossible cap should stretch the job far beyond nominal")
	}
	if res.CapViolationSec <= 0 {
		t.Error("idle floor above cap must register violations")
	}
}

// TestZeroWaitAccounting: a job starting instantly has slowdown exactly 1
// when its runtime exceeds the bounded-slowdown threshold.
func TestZeroWaitAccounting(t *testing.T) {
	jobs := []workload.Job{mkJob(0, 0, 120, 240, 1, 1000)}
	sim, err := NewSimulator(Config{Nodes: 4}, nil, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanSlowdown != 1 {
		t.Errorf("slowdown = %v, want exactly 1", res.MeanSlowdown)
	}
	if res.MeanWait != 0 || res.MaxWait != 0 {
		t.Errorf("wait = %v/%v", res.MeanWait, res.MaxWait)
	}
}
