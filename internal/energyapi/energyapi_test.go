package energyapi

import (
	"errors"
	"math"
	"testing"

	"davide/internal/accounting"
	"davide/internal/cpu"
	"davide/internal/node"
)

// fakeClock is a controllable virtual clock.
type fakeClock struct{ t float64 }

func (f *fakeClock) now() float64      { return f.t }
func (f *fakeClock) advance(d float64) { f.t += d }

func newSession(t *testing.T) (*Session, *fakeClock, *node.Node) {
	t.Helper()
	n, err := node.New(0, node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{}
	s, err := NewSession(n, clk.now)
	if err != nil {
		t.Fatal(err)
	}
	return s, clk, n
}

func TestNewSessionValidation(t *testing.T) {
	n, err := node.New(0, node.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(nil, func() float64 { return 0 }); err == nil {
		t.Error("nil node should error")
	}
	if _, err := NewSession(n, nil); err == nil {
		t.Error("nil clock should error")
	}
}

func TestPhaseLifecycle(t *testing.T) {
	s, clk, _ := newSession(t)
	if err := s.PhaseEnd(); err == nil {
		t.Error("PhaseEnd without open phase should error")
	}
	if err := s.PhaseBegin(""); err == nil {
		t.Error("empty phase name should error")
	}
	if err := s.PhaseBegin("fft"); err != nil {
		t.Fatal(err)
	}
	if err := s.PhaseBegin("overlap"); err == nil {
		t.Error("nested phase should error")
	}
	if err := s.SetLoad(1); err != nil {
		t.Fatal(err)
	}
	clk.advance(10)
	if err := s.PhaseEnd(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 1 {
		t.Fatalf("phases = %v", rep.Phases)
	}
	ph := rep.Phases[0]
	if ph.Name != "fft" || ph.Duration() != 10 {
		t.Errorf("phase = %+v", ph)
	}
	// Full load ~1980 W for 10 s.
	if ph.EnergyJ < 18000 || ph.EnergyJ > 21000 {
		t.Errorf("phase energy = %v", ph.EnergyJ)
	}
	if math.Abs(ph.MeanW-ph.EnergyJ/10) > 1e-9 {
		t.Errorf("phase mean = %v", ph.MeanW)
	}
}

func TestCloseStates(t *testing.T) {
	s, _, _ := newSession(t)
	if err := s.PhaseBegin("open"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err == nil {
		t.Error("close with open phase should error")
	}
	if err := s.PhaseEnd(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err == nil {
		t.Error("double close should error")
	}
	if err := s.PhaseBegin("late"); err == nil {
		t.Error("phase after close should error")
	}
	if err := s.SetLoad(1); err == nil {
		t.Error("SetLoad after close should error")
	}
	if err := s.RequestFrequency(0); err == nil {
		t.Error("RequestFrequency after close should error")
	}
	if err := s.ReleaseGPUs(1); err == nil {
		t.Error("ReleaseGPUs after close should error")
	}
	if err := s.ReleaseCores(4); err == nil {
		t.Error("ReleaseCores after close should error")
	}
}

func TestFrequencyKnobChangesEnergy(t *testing.T) {
	run := func(pstate int) (timeS, energyJ float64) {
		s, clk, n := newSession(t)
		if err := s.RequestFrequency(pstate); err != nil {
			t.Fatal(err)
		}
		if err := s.SetLoad(1); err != nil {
			t.Fatal(err)
		}
		// Same work at lower frequency takes proportionally longer.
		fTop, err := n.Sockets[0].Frequency(n.PStateCount() - 1)
		if err != nil {
			t.Fatal(err)
		}
		fCur, err := n.Sockets[0].Frequency(pstate)
		if err != nil {
			t.Fatal(err)
		}
		base := 100.0
		clk.advance(base * float64(fTop) / float64(fCur))
		rep, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalTimeS, rep.TotalJ
	}
	tFast, eFast := run(6) // top P-state
	tSlow, eSlow := run(0) // bottom P-state
	if tSlow <= tFast {
		t.Errorf("low frequency should be slower: %v vs %v", tSlow, tFast)
	}
	// For a CPU-dominated energy budget DVFS would save energy, but on a
	// GPU-heavy node the static/GPU power dominates, so running longer at
	// low CPU frequency costs MORE total energy — the race-to-idle
	// insight the §IV co-design loop is meant to expose per application.
	if eSlow <= eFast {
		t.Errorf("on a GPU-heavy node, slow CPU should waste energy: %v vs %v", eSlow, eFast)
	}
}

func TestReleaseGPUsSavesEnergyForCPUCode(t *testing.T) {
	run := func(gpus int) float64 {
		s, clk, _ := newSession(t)
		if err := s.ReleaseGPUs(gpus); err != nil {
			t.Fatal(err)
		}
		if err := s.SetLoad(0.5); err != nil {
			t.Fatal(err)
		}
		clk.advance(100) // same CPU-bound runtime either way
		rep, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalJ
	}
	eAll := run(4)
	eNone := run(0)
	if eNone >= eAll {
		t.Errorf("releasing idle GPUs should save energy: %v vs %v", eNone, eAll)
	}
	// 4 GPUs at partial load vs 5 W residuals for 100 s.
	if eAll-eNone < 1000 {
		t.Errorf("GPU release saving = %v J, want > 1 kJ", eAll-eNone)
	}
}

func TestReleaseCores(t *testing.T) {
	s, clk, n := newSession(t)
	if err := s.ReleaseCores(2); err != nil {
		t.Fatal(err)
	}
	for _, sock := range n.Sockets {
		if sock.ActiveCores() != 2 {
			t.Errorf("ActiveCores = %d", sock.ActiveCores())
		}
	}
	if err := s.ReleaseCores(99); err == nil {
		t.Error("too many cores should error")
	}
	clk.advance(1)
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseCoresPartialFailureRecordsPower(t *testing.T) {
	s, clk, n := newSession(t)
	// Heterogeneous sockets: socket 1 has only 4 cores, so keeping 6
	// per socket succeeds on socket 0 and fails on socket 1.
	small := cpu.DefaultConfig()
	small.Cores = 4
	sock, err := cpu.New(small)
	if err != nil {
		t.Fatal(err)
	}
	n.Sockets[1] = sock
	if err := s.SetLoad(1); err != nil {
		t.Fatal(err)
	}
	clk.advance(10)
	before := float64(n.Power())
	if err := s.ReleaseCores(6); err == nil {
		t.Fatal("ReleaseCores(6) should fail on the 4-core socket")
	}
	after := float64(n.Power())
	if after >= before {
		t.Fatalf("socket 0 change not applied: power %v -> %v", before, after)
	}
	// The regression: the applied socket-0 change must be in the power
	// trace at t=10, so [10, 20] integrates at the reduced level — not
	// at the pre-release level until the next record.
	clk.advance(10)
	e, err := n.Energy(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(e), after*10; math.Abs(got-want) > 1e-6 {
		t.Errorf("energy [10,20] = %v, want %v (recorded at release time)", got, want)
	}
	if float64(e) >= before*10-1e-6 {
		t.Errorf("energy [10,20] = %v still billed at pre-release power %v*10", float64(e), before)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReportTotals(t *testing.T) {
	s, clk, _ := newSession(t)
	if err := s.SetLoad(0.5); err != nil {
		t.Fatal(err)
	}
	clk.advance(50)
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalTimeS != 50 {
		t.Errorf("TotalTimeS = %v", rep.TotalTimeS)
	}
	if math.Abs(rep.MeanPowerW-rep.TotalJ/50) > 1e-9 {
		t.Errorf("MeanPowerW inconsistent")
	}
	if math.Abs(rep.EnergyDelay-rep.TotalJ*50) > 1e-9 {
		t.Errorf("EnergyDelay inconsistent")
	}
}

func TestParetoFront(t *testing.T) {
	pts := []TradeoffPoint{
		{Label: "fast-hot", TimeS: 10, EnergyJ: 1000},
		{Label: "slow-cool", TimeS: 20, EnergyJ: 700},
		{Label: "dominated", TimeS: 25, EnergyJ: 1200},
		{Label: "balanced", TimeS: 14, EnergyJ: 800},
	}
	front, err := ParetoFront(pts)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range front {
		names[p.Label] = true
	}
	if !names["fast-hot"] || !names["slow-cool"] || !names["balanced"] {
		t.Errorf("front = %v", front)
	}
	if names["dominated"] {
		t.Error("dominated point should be excluded")
	}
	if _, err := ParetoFront(nil); err == nil {
		t.Error("empty points should error")
	}
}

func TestParetoFrontTies(t *testing.T) {
	// Identical points are mutually non-dominating.
	pts := []TradeoffPoint{
		{Label: "a", TimeS: 10, EnergyJ: 100},
		{Label: "b", TimeS: 10, EnergyJ: 100},
	}
	front, err := ParetoFront(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 2 {
		t.Errorf("tied front = %v", front)
	}
}

// traceSource reads one node's own power trace as an
// accounting.EnergySource: the monitoring plane's view of the run.
type traceSource struct{ n *node.Node }

func (s traceSource) Energy(id int, t0, t1 float64) (float64, error) {
	if id != s.n.ID {
		return 0, errors.New("trace: unknown node")
	}
	e, err := s.n.Energy(t0, t1)
	return float64(e), err
}

// TestPhasesFromStore: the phases a Session marks live are the phases
// accounting.Phases rebuilds after the fact from the node's power, bit
// for bit, and a source error reaches the caller.
func TestPhasesFromStore(t *testing.T) {
	s, clk, n := newSession(t)
	if err := s.PhaseBegin("setup"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLoad(0.2); err != nil {
		t.Fatal(err)
	}
	clk.advance(10)
	if err := s.PhaseEnd(); err != nil {
		t.Fatal(err)
	}
	if err := s.PhaseBegin("solve"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLoad(1); err != nil {
		t.Fatal(err)
	}
	clk.advance(20)
	if err := s.PhaseEnd(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("session phases = %+v", rep.Phases)
	}

	src := traceSource{n}
	got, err := accounting.Phases(src, []int{n.ID}, []string{"setup", "solve"}, []float64{0, 10, 30})
	if err != nil {
		t.Fatal(err)
	}
	for i, ph := range got {
		if ph != rep.Phases[i] {
			t.Errorf("phase %d from store = %+v, session measured %+v", i, ph, rep.Phases[i])
		}
	}
	if !(got[1].MeanW > got[0].MeanW) {
		t.Errorf("solve at %v W should draw more than setup at %v W", got[1].MeanW, got[0].MeanW)
	}

	if _, err := accounting.Phases(src, []int{n.ID + 1}, []string{"a"}, []float64{0, 1}); err == nil {
		t.Error("source error should propagate")
	}
}
