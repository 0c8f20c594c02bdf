package core

import (
	"math"
	"runtime"
	"testing"

	"davide/internal/sched"
	"davide/internal/workload"
)

func genJobs(t *testing.T, n int, seed int64) []workload.Job {
	t.Helper()
	g, err := workload.NewGenerator(workload.DefaultGeneratorConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := g.Batch(n)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func newSystem(t *testing.T) *System {
	t.Helper()
	s, err := NewSystem(genJobs(t, 800, 555))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystem(t *testing.T) {
	s := newSystem(t)
	if s.Cluster.NodeCount() != 45 {
		t.Errorf("NodeCount = %d", s.Cluster.NodeCount())
	}
	if s.Predictor == nil {
		t.Error("predictor should be trained")
	}
	// Without training jobs there is no predictor, but the system works.
	s2, err := NewSystem(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Predictor != nil {
		t.Error("untrained system should have nil predictor")
	}
}

func TestRunScheduledFillsLedgerAndSignals(t *testing.T) {
	s := newSystem(t)
	jobs := genJobs(t, 120, 77)
	res, err := s.RunScheduled(jobs, sched.Config{}, sched.NewEASYStrategy())
	if err != nil {
		t.Fatal(err)
	}
	if s.Ledger.Len() != len(jobs) {
		t.Errorf("ledger has %d records, want %d", s.Ledger.Len(), len(jobs))
	}
	// Every job has an assignment of the right size, with no overlap in
	// time on the same node.
	type iv struct{ t0, t1 float64 }
	nodeIvs := map[int][]iv{}
	for _, j := range jobs {
		nodes := s.Assignments()[j.ID]
		if len(nodes) != j.Nodes {
			t.Fatalf("job %d assigned %d nodes, want %d", j.ID, len(nodes), j.Nodes)
		}
		for _, n := range nodes {
			nodeIvs[n] = append(nodeIvs[n], iv{res.Starts[j.ID], res.Ends[j.ID]})
		}
	}
	for n, ivs := range nodeIvs {
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				if a.t0 < b.t1-1e-9 && b.t0 < a.t1-1e-9 {
					t.Fatalf("node %d double-booked: %+v vs %+v", n, a, b)
				}
			}
		}
	}
	// Node signals exist and integrate to plausible energies.
	sig, err := s.NodeSignal(0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sig.Energy(0, res.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 {
		t.Error("node 0 energy should be positive")
	}
	if _, err := s.NodeSignal(999); err == nil {
		t.Error("out-of-range node should error")
	}
}

func TestLedgerMatchesSignalEnergy(t *testing.T) {
	// Conservation: sum of per-job ledger energies + idle energy equals
	// the integral of all node signals.
	s := newSystem(t)
	jobs := genJobs(t, 60, 3)
	res, err := s.RunScheduled(jobs, sched.Config{}, sched.NewEASYStrategy())
	if err != nil {
		t.Fatal(err)
	}
	var sigTotal float64
	for n := 0; n < s.Cluster.NodeCount(); n++ {
		sig, err := s.NodeSignal(n)
		if err != nil {
			t.Fatal(err)
		}
		e, err := sig.Energy(0, res.Makespan)
		if err != nil {
			t.Fatal(err)
		}
		sigTotal += e
	}
	// Ledger energy counts job power above zero; signals include idle
	// power on all nodes at all times plus (job - idle) during jobs.
	idleTotal := s.IdleNodePowerW * float64(s.Cluster.NodeCount()) * res.Makespan
	var jobDyn float64
	for _, j := range jobs {
		rec, err := s.Ledger.Job(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		jobDyn += rec.EnergyJ - s.IdleNodePowerW*float64(j.Nodes)*rec.Duration()
	}
	want := idleTotal + jobDyn
	if math.Abs(sigTotal-want) > 1e-6*want {
		t.Errorf("signal energy %v != ledger-derived %v", sigTotal, want)
	}
}

func TestRunScheduledConfigChecks(t *testing.T) {
	s := newSystem(t)
	jobs := genJobs(t, 10, 1)
	if _, err := s.RunScheduled(jobs, sched.Config{Nodes: 10}, nil); err == nil {
		t.Error("mismatched node count should error")
	}
	if _, err := s.StreamWindow(0, 1, 100, 0); err == nil {
		t.Error("StreamWindow before run should error")
	}
	if _, _, err := s.JobEnergyFromTelemetry(0, 100); err == nil {
		t.Error("JobEnergyFromTelemetry before run should error")
	}
}

func TestProactiveCapUsesTrainedPredictor(t *testing.T) {
	s := newSystem(t)
	jobs := genJobs(t, 100, 12)
	cap := 45 * 1100.0
	res, err := s.RunScheduled(jobs, sched.Config{
		PowerCapW: cap, ReactiveCapping: true,
	}, sched.NewEASYPowerStrategy())
	if err != nil {
		t.Fatal(err)
	}
	// The system auto-wires its predictor: policy must say proactive.
	if res.Policy != "live-easy-power+reactive" {
		t.Errorf("policy = %q", res.Policy)
	}
	if res.CapViolationSec > 0.02*res.Makespan {
		t.Errorf("violations %v s over %v s makespan", res.CapViolationSec, res.Makespan)
	}
}

func TestStreamWindowEndToEnd(t *testing.T) {
	s := newSystem(t)
	jobs := genJobs(t, 40, 9)
	if _, err := s.RunScheduled(jobs, sched.Config{}, sched.NewEASYStrategy()); err != nil {
		t.Fatal(err)
	}
	// Stream 100 virtual seconds of 8 nodes at 50 S/s over real MQTT.
	res, err := s.StreamWindow(0, 100, 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesStreamed != 8 {
		t.Errorf("NodesStreamed = %d", res.NodesStreamed)
	}
	if res.SamplesSent < 8*4990 {
		t.Errorf("SamplesSent = %d, want ~40000", res.SamplesSent)
	}
	if res.BrokerPublishes == 0 {
		t.Error("broker saw no publishes")
	}
	if res.MaxEnergyErrPct > 1.0 {
		t.Errorf("telemetry energy error = %v%%, want < 1%%", res.MaxEnergyErrPct)
	}
	if res.WallClock <= 0 {
		t.Error("wall clock not measured")
	}
	// The replay's samples live in the exposed compressed store and stay
	// queryable after the fact.
	db := s.Store()
	if db == nil {
		t.Fatal("Store() nil after StreamWindow")
	}
	st := db.Stats()
	if st.Nodes != 8 || st.Samples < 8*4990 {
		t.Errorf("store stats = %+v", st)
	}
	if st.BytesPerSample >= 16 {
		t.Errorf("store not compressing: %.1f B/sample", st.BytesPerSample)
	}
	e, err := db.Energy(0, 0, 100)
	if err != nil || e <= 0 {
		t.Errorf("post-hoc store energy = %v, %v", e, err)
	}
	pts, err := db.Fetch(0, 0, 100, 1)
	if err != nil || len(pts) == 0 {
		t.Errorf("post-hoc downsampled fetch = %d points, %v", len(pts), err)
	}
	// Parameter validation.
	if _, err := s.StreamWindow(10, 10, 50, 1); err == nil {
		t.Error("empty window should error")
	}
	if _, err := s.StreamWindow(0, 1, 0, 1); err == nil {
		t.Error("zero rate should error")
	}
}

func TestJobEnergyFromTelemetry(t *testing.T) {
	s := newSystem(t)
	jobs := genJobs(t, 30, 4)
	if _, err := s.RunScheduled(jobs, sched.Config{}, sched.NewEASYStrategy()); err != nil {
		t.Fatal(err)
	}
	// Pick a short job to keep the replay quick.
	best, bestDur := -1, math.Inf(1)
	for _, j := range jobs {
		rec, err := s.Ledger.Job(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if d := rec.Duration(); d < bestDur {
			best, bestDur = j.ID, d
		}
	}
	tele, ledger, err := s.JobEnergyFromTelemetry(best, 20)
	if err != nil {
		t.Fatal(err)
	}
	if ledger <= 0 {
		t.Fatal("ledger energy missing")
	}
	if math.Abs(tele-ledger)/ledger > 0.02 {
		t.Errorf("telemetry ETS %v deviates from ledger %v by >2%%", tele, ledger)
	}
	if _, _, err := s.JobEnergyFromTelemetry(99999, 20); err == nil {
		t.Error("unknown job should error")
	}
}

func TestStreamWindowErrorPaths(t *testing.T) {
	fresh, err := NewSystem(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.StreamWindow(0, 1, 50, 1); err == nil {
		t.Error("no prior run should error")
	}
	s := newSystem(t)
	if _, err := s.RunScheduled(genJobs(t, 20, 2), sched.Config{}, sched.NewEASYStrategy()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StreamWindow(5, 5, 50, 1); err == nil {
		t.Error("empty window should error")
	}
	if _, err := s.StreamWindow(6, 5, 50, 1); err == nil {
		t.Error("inverted window should error")
	}
	if _, err := s.StreamWindow(0, 1, 0, 1); err == nil {
		t.Error("zero sample rate should error")
	}
	if _, err := s.StreamWindow(0, 1, -50, 1); err == nil {
		t.Error("negative sample rate should error")
	}
}

func TestStreamWindowConcurrencyInvariant(t *testing.T) {
	// The concurrent fleet must publish exactly what the sequential
	// replay publishes, with the same telemetry accuracy: per-node
	// monitor seeds are fixed by node ID, not by worker order. The plane
	// sizes its publish pool from GOMAXPROCS, so that is what varies.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	s := newSystem(t)
	if _, err := s.RunScheduled(genJobs(t, 40, 9), sched.Config{}, sched.NewEASYStrategy()); err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(1)
	seq, err := s.StreamWindow(0, 50, 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(6)
	conc, err := s.StreamWindow(0, 50, 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	if seq.SamplesSent != conc.SamplesSent || seq.BatchesSent != conc.BatchesSent {
		t.Errorf("sequential %d/%d != concurrent %d/%d samples/batches",
			seq.SamplesSent, seq.BatchesSent, conc.SamplesSent, conc.BatchesSent)
	}
	if math.Abs(seq.MaxEnergyErrPct-conc.MaxEnergyErrPct) > 1e-9 {
		t.Errorf("energy error drifted: seq %v%%, conc %v%%",
			seq.MaxEnergyErrPct, conc.MaxEnergyErrPct)
	}
	if len(conc.PerNode) != 6 {
		t.Errorf("PerNode = %d entries, want 6", len(conc.PerNode))
	}
	for _, ns := range conc.PerNode {
		if !ns.Delivered {
			t.Errorf("node %d not confirmed delivered", ns.Node)
		}
	}
}

// TestStreamWindowCodecsAgree pins the E17 replay claim on the whole
// 45-node pilot: the binary wire frame is a transport detail, not a
// physics change. The replay streams every node, holds the 1 %
// delivered-energy bound (the frame is lossless beyond the store's
// 100 ns tick grid; its T0 quantisation is half a tick) and carries the
// stream in at most 4 B per sample, a quarter of an uncompressed
// (float64 time, float64 watts) pair (~2 B measured).
func TestStreamWindowCodecsAgree(t *testing.T) {
	s := newSystem(t)
	if _, err := s.RunScheduled(genJobs(t, 300, 21), sched.Config{}, sched.NewEASYStrategy()); err != nil {
		t.Fatal(err)
	}
	res, err := s.StreamWindow(0, 60, 50, 45)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesStreamed != 45 {
		t.Fatalf("streamed %d nodes, want 45", res.NodesStreamed)
	}
	if res.MaxEnergyErrPct > 1.0 {
		t.Errorf("energy error %v%% exceeds 1%%", res.MaxEnergyErrPct)
	}
	if res.WireBytesPerSample <= 0 || res.WireBytesPerSample > 4 {
		t.Errorf("wire bytes/sample = %.2f, want (0, 4]", res.WireBytesPerSample)
	}
}
