package davide

import (
	"testing"

	"davide/internal/capping"
	"davide/internal/cluster"
	"davide/internal/core"
	"davide/internal/energyapi"
	"davide/internal/node"
	"davide/internal/predictor"
	"davide/internal/sched"
	"davide/internal/workload"
)

// Smoke tests of the constructors the examples and CLIs call, one per
// entry path, named for what each asserts.

// TestCappedRunFillsLedger mirrors the quickstart example end to end:
// generate a workload, build the system, run it under a power cap, inspect
// accounting.
func TestCappedRunFillsLedger(t *testing.T) {
	gen, err := workload.NewGenerator(workload.DefaultGeneratorConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	train, err := gen.Batch(500)
	if err != nil {
		t.Fatal(err)
	}
	work, err := gen.Batch(80)
	if err != nil {
		t.Fatal(err)
	}
	// Re-base submit times so the run starts at zero.
	base := work[0].SubmitAt
	for i := range work {
		work[i].SubmitAt -= base
	}
	sys, err := core.NewSystem(train)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunScheduled(work, sched.Config{
		PowerCapW: 45 * 1200, ReactiveCapping: true,
	}, sched.NewEASYPowerStrategy())
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 80 {
		t.Errorf("Jobs = %d", res.Jobs)
	}
	if sys.Ledger.Len() != 80 {
		t.Errorf("ledger = %d", sys.Ledger.Len())
	}
	if len(sys.Ledger.PerUser()) == 0 {
		t.Error("no user summaries")
	}
}

func TestPredictorsMAPEUnder20Pct(t *testing.T) {
	gen, err := workload.NewGenerator(workload.DefaultGeneratorConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := gen.Batch(1000)
	if err != nil {
		t.Fatal(err)
	}
	knn, err := predictor.NewKNN(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []predictor.Predictor{predictor.NewMeanPerKey(), predictor.NewOLS(), knn} {
		ev, err := predictor.Evaluate(p, jobs[:800], jobs[800:])
		if err != nil {
			t.Fatal(err)
		}
		if ev.MAPE <= 0 || ev.MAPE > 20 {
			t.Errorf("%s MAPE = %v", ev.Name, ev.MAPE)
		}
	}
}

func TestNodeCapperHoldsCap(t *testing.T) {
	n, err := node.New(0, node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n.SetLoad(1)
	c, err := capping.NewNodeCapper(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetCap(1500); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(50); err != nil {
		t.Fatal(err)
	}
	if n.Power() > 1500 {
		t.Errorf("capped power = %v", n.Power())
	}
}

// TestPilotClusterShapeAndEfficiency also holds core's pilot constants and
// idle draw, which stand in for the hardware model in the control plane,
// to that model.
func TestPilotClusterShapeAndEfficiency(t *testing.T) {
	c, err := cluster.New(cluster.PilotConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.NodeCount() != 45 {
		t.Errorf("NodeCount = %d", c.NodeCount())
	}
	if core.PilotNodes != c.NodeCount() {
		t.Errorf("core.PilotNodes = %d, cluster has %d nodes", core.PilotNodes, c.NodeCount())
	}
	if want := cluster.PilotConfig().NodesPerRack; core.PilotRackSize != want {
		t.Errorf("core.PilotRackSize = %d, cluster racks hold %d nodes", core.PilotRackSize, want)
	}
	sys, err := core.NewSystem(nil)
	if err != nil {
		t.Fatal(err)
	}
	if idle := float64(c.Nodes[0].IdlePower()); sys.IdleNodePowerW != idle {
		t.Errorf("core idle draw %v W, node model idles at %v W", sys.IdleNodePowerW, idle)
	}
	res, err := c.RunLinpack(0.75)
	if err != nil {
		t.Fatal(err)
	}
	if res.GFlopsPerWatt < 6 {
		t.Errorf("efficiency = %v", res.GFlopsPerWatt)
	}
}

func TestEnergySessionReportsOnePhase(t *testing.T) {
	n, err := node.New(0, node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	s, err := energyapi.NewSession(n, func() float64 { return now })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PhaseBegin("compute"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLoad(1); err != nil {
		t.Fatal(err)
	}
	now = 10
	if err := s.PhaseEnd(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalJ <= 0 || len(rep.Phases) != 1 {
		t.Errorf("report = %+v", rep)
	}
}
