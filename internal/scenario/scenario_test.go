package scenario

import (
	"math"
	"strings"
	"testing"

	"davide/internal/workload"
)

func TestArrivalRatesMeanNearOne(t *testing.T) {
	const period = 1200.0
	for _, kind := range ArrivalKinds() {
		rate, err := rateFn(kind, period)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		sum := 0.0
		for s := 0.0; s < period; s++ {
			r := rate(s)
			if r <= 0 {
				t.Fatalf("%s: rate %g at t=%g not strictly positive", kind, r, s)
			}
			sum += r
		}
		if mean := sum / period; math.Abs(mean-1) > 0.05 {
			t.Errorf("%s: mean rate %g, want ~1 (retiming must preserve trace span)", kind, mean)
		}
	}
}

func TestRetimeArrivals(t *testing.T) {
	jobs := make([]workload.Job, 40)
	for i := range jobs {
		jobs[i] = workload.Job{ID: i, SubmitAt: float64(i) * 30, Duration: 60, Nodes: 1}
	}

	t.Run("empty-kind-copies-unchanged", func(t *testing.T) {
		sc := &Scenario{Name: "plain"}
		out, err := sc.RetimeArrivals(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != jobs[i] {
				t.Fatalf("job %d changed without an arrival kind", i)
			}
		}
	})

	for _, kind := range ArrivalKinds() {
		t.Run(kind, func(t *testing.T) {
			sc := &Scenario{Name: kind, Arrivals: kind}
			out, err := sc.RetimeArrivals(jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(jobs) {
				t.Fatalf("got %d jobs, want %d", len(out), len(jobs))
			}
			for i := range out {
				// Only SubmitAt may change.
				orig, warped := jobs[i], out[i]
				warped.SubmitAt = orig.SubmitAt
				if warped != orig {
					t.Fatalf("job %d: non-submit field mutated", i)
				}
				if i > 0 && out[i].SubmitAt < out[i-1].SubmitAt {
					t.Fatalf("submit order broken at %d: %g < %g", i, out[i].SubmitAt, out[i-1].SubmitAt)
				}
			}
			// Input untouched.
			for i := range jobs {
				if jobs[i].SubmitAt != float64(i)*30 {
					t.Fatalf("input job %d mutated", i)
				}
			}
			// The warp actually moved something.
			moved := false
			for i := range out {
				if out[i].SubmitAt != jobs[i].SubmitAt {
					moved = true
					break
				}
			}
			if !moved {
				t.Fatalf("%s warp left every submit time unchanged", kind)
			}
			// Mean-1 rate keeps the span comparable.
			span := out[len(out)-1].SubmitAt
			origSpan := jobs[len(jobs)-1].SubmitAt
			if span < 0.5*origSpan || span > 2*origSpan {
				t.Errorf("span %g strayed too far from original %g", span, origSpan)
			}
		})
	}

	t.Run("unsorted-input-rejected", func(t *testing.T) {
		bad := []workload.Job{{SubmitAt: 100}, {SubmitAt: 50}}
		sc := &Scenario{Name: "x", Arrivals: ArrivalsDiurnal}
		if _, err := sc.RetimeArrivals(bad); err == nil {
			t.Fatal("unsorted jobs accepted")
		}
	})

	t.Run("unknown-kind-rejected", func(t *testing.T) {
		sc := &Scenario{Name: "x", Arrivals: "full-moon"}
		if _, err := sc.RetimeArrivals(jobs); err == nil || !strings.Contains(err.Error(), "full-moon") {
			t.Fatalf("want unknown-kind error naming it, got %v", err)
		}
	})
}

func TestCapTrajectoryFracAt(t *testing.T) {
	var nilTraj *CapTrajectory
	if got := nilTraj.FracAt(100); got != 1 {
		t.Fatalf("nil trajectory FracAt = %g, want 1", got)
	}
	ct := &CapTrajectory{Steps: []CapStep{
		{T0: 200, T1: 600, Frac: 0.9},
		{T0: 600, T1: 1000, Frac: 0.8},
	}}
	for _, tc := range []struct{ t, want float64 }{
		{0, 1}, {199, 1}, {200, 0.9}, {599, 0.9}, {600, 0.8}, {999, 0.8}, {1000, 1},
	} {
		if got := ct.FracAt(tc.t); got != tc.want {
			t.Errorf("FracAt(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
}

func TestThermalPerturberThrottleCycle(t *testing.T) {
	const (
		idleW = 40.0
		loadW = 300.0
		tickS = 15.0
	)
	p, err := NewThermalPerturber(4, []ThermalEvent{{T0: 300, T1: 900, DeltaC: 14}}, idleW, loadW)
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]float64, 4)
	throttledDuring, releasedAfter := false, false
	var lastThrottledLevel float64
	for t0 := 0.0; t0 < 1800; t0 += tickS {
		for n := range levels {
			levels[n] = loadW
		}
		p.Perturb(t0, t0+tickS, levels)
		switch {
		case t0 < 300:
			// Steady margin: no throttling in a clean run.
			if p.ThrottledNodes() != 0 {
				t.Fatalf("throttled at t=%g with base coolant", t0)
			}
			if levels[0] != loadW {
				t.Fatalf("level perturbed at t=%g without throttle", t0)
			}
		case t0 < 900:
			if p.ThrottledNodes() == 4 {
				throttledDuring = true
				lastThrottledLevel = levels[0]
			}
		default:
			if p.ThrottledNodes() == 0 {
				releasedAfter = true
			}
		}
	}
	if !throttledDuring {
		t.Fatal("+14 C excursion never tripped the dies")
	}
	if !releasedAfter {
		t.Fatal("dies never released after the excursion ended")
	}
	want := idleW + throttleDynFrac*(loadW-idleW)
	if math.Abs(lastThrottledLevel-want) > 1e-9 {
		t.Fatalf("throttled level %g, want idle+%g*dyn = %g", lastThrottledLevel, throttleDynFrac, want)
	}
}

func TestThermalPerturberRejectsBadRefLoad(t *testing.T) {
	if _, err := NewThermalPerturber(2, nil, 100, 90); err == nil {
		t.Fatal("refLoad <= idle accepted")
	}
	if _, err := NewThermalPerturber(0, nil, 40, 300); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestRegistryAllValid(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("registry has %d scenarios, want >= 8", len(names))
	}
	for _, name := range names {
		sc, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Name != name {
			t.Errorf("%s: Name field %q disagrees with registry key", name, sc.Name)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if sc.MaxOverPct <= 0 || sc.MaxEnergyErrPct <= 0 {
			t.Errorf("%s: undeclared degradation bounds (over %g%%, energy %g%%)", name, sc.MaxOverPct, sc.MaxEnergyErrPct)
		}
		if sc.Desc == "" {
			t.Errorf("%s: no description", name)
		}
	}
	if _, err := Get("no-such"); err == nil || !strings.Contains(err.Error(), ScenarioDRRamp) {
		t.Fatalf("unknown-name error should list the registry, got %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []*Scenario{
		{},
		{Name: "x", Arrivals: "nope"},
		{Name: "x", Cap: &CapTrajectory{Steps: []CapStep{{T0: 100, T1: 50, Frac: 0.9}}}},
		{Name: "x", Cap: &CapTrajectory{Steps: []CapStep{{T0: 0, T1: 100, Frac: 0}}}},
		{Name: "x", Thermal: []ThermalEvent{{T0: 0, T1: 100, DeltaC: -2}}},
		{Name: "x", BrownoutStaleFrac: 1.5},
		{Name: "x", Phases: []Phase{{Name: "p", T0: 10, T1: 10}}},
		{Name: "x", Chaos: []ChaosPhase{{Preset: "bogus"}}},
		{Name: "x", Chaos: []ChaosPhase{{Preset: "bridge-flap"}}},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}
