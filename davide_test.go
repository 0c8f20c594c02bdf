package davide

import (
	"testing"

	"davide/internal/sensor"
)

// TestFacadeQuickPath exercises the public API end to end, mirroring the
// quickstart example: generate a workload, build the system, run it under
// a power cap, inspect accounting.
func TestFacadeQuickPath(t *testing.T) {
	gen, err := NewGenerator(DefaultWorkload(1))
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
	sys, err := NewSystem(train)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunScheduled(work, SchedConfig{
		PowerCapW: 45 * 1200, ReactiveCapping: true,
	}, NewEASYPowerStrategy())
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

func TestFacadePredictors(t *testing.T) {
	gen, err := NewGenerator(DefaultWorkload(2))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := gen.Batch(1000)
	if err != nil {
		t.Fatal(err)
	}
	knn, err := NewKNNPredictor(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Predictor{NewMeanPredictor(), NewOLSPredictor(), knn} {
		ev, err := EvaluatePredictor(p, jobs[:800], jobs[800:])
		if err != nil {
			t.Fatal(err)
		}
		if ev.MAPE <= 0 || ev.MAPE > 20 {
			t.Errorf("%s MAPE = %v", ev.Name, ev.MAPE)
		}
	}
}

func TestFacadeMonitors(t *testing.T) {
	sig := sensor.Sum{sensor.Const(800), sensor.Square{Low: 0, High: 800, Period: 0.05, Duty: 0.5}}
	results, err := CompareMonitors(sig, 0, 1, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %d", len(results))
	}
	var ipmiErr, egErr float64
	for _, r := range results {
		switch r.Class {
		case MonitorIPMI:
			ipmiErr = r.RelErrorPct
		case MonitorEG:
			egErr = r.RelErrorPct
		}
	}
	if egErr >= ipmiErr {
		t.Errorf("EG error %v should beat IPMI %v", egErr, ipmiErr)
	}
}

func TestFacadeNodeAndCapping(t *testing.T) {
	n, err := NewNode(0)
	if err != nil {
		t.Fatal(err)
	}
	n.SetLoad(1)
	c, err := NewNodeCapper(n)
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

func TestFacadeCluster(t *testing.T) {
	c, err := NewPilotCluster()
	if err != nil {
		t.Fatal(err)
	}
	if c.NodeCount() != 45 {
		t.Errorf("NodeCount = %d", c.NodeCount())
	}
	res, err := c.RunLinpack(0.75)
	if err != nil {
		t.Fatal(err)
	}
	if res.GFlopsPerWatt < 6 {
		t.Errorf("efficiency = %v", res.GFlopsPerWatt)
	}
}

func TestFacadeEnergySession(t *testing.T) {
	n, err := NewNode(0)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	s, err := NewEnergySession(n, func() float64 { return now })
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
