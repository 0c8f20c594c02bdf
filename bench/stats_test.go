package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 99); got != 42 {
		t.Errorf("p99 of a single sample = %g, want 42", got)
	}
}

// The reported tail is the highest percentile that still has at least
// ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := supportedTail(c.n)
		if got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if got != 50 && c.n-percentileRank(c.n, got) < minBeyond {
			t.Errorf("supportedTail(%d) = p%g leaves only %d samples beyond", c.n, got, c.n-percentileRank(c.n, got))
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

func TestGrowthPoolsFifthsAcrossRounds(t *testing.T) {
	// Two rounds of ten operations: first fifths {1,1} and {1,3}, last
	// fifths {4,4} and {2,4}: medians 1 and 4.
	rounds := [][]float64{
		{1, 1, 9, 9, 9, 9, 9, 9, 4, 4},
		{1, 3, 9, 9, 9, 9, 9, 9, 2, 4},
	}
	if got := growth(rounds); got != 4 {
		t.Errorf("growth = %g, want 4", got)
	}
	flat := [][]float64{{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}}
	if got := growth(flat); got != 1 {
		t.Errorf("flat growth = %g, want 1", got)
	}
	if got := growth([][]float64{{1, 2}}); got != 1 || math.IsNaN(got) {
		t.Errorf("growth of a round too short for fifths = %g, want 1", got)
	}
}

// A round whose reference slices took 10 % longer than nominal ran at
// 1/1.21 of nominal speed; a round without slices is taken at nominal.
func TestSpeedFactor(t *testing.T) {
	nominal := []float64{nominalSliceMS, nominalSliceMS, nominalSliceMS}
	if got := speedFactor(nominal); math.Abs(got-1) > 1e-12 {
		t.Errorf("speed at nominal slices = %g, want 1", got)
	}
	// The mean counts: one slice stretched by 30 % among three.
	slow := []float64{nominalSliceMS, nominalSliceMS, 1.3 * nominalSliceMS}
	if got, want := speedFactor(slow), 1/(1.1*1.1); math.Abs(got-want) > 1e-12 {
		t.Errorf("speed with slices 10 %% over nominal = %g, want %g", got, want)
	}
	if got := speedFactor(nil); got != 1 {
		t.Errorf("speed without slices = %g, want 1", got)
	}
}

// The same work measured once at nominal speed and once in a round where
// the machine ran at half speed reads the same after normalisation.
func TestEndToEndValuesAtNominalSpeed(t *testing.T) {
	r := &run{
		setups: []float64{1, 2},
		rounds: [][]float64{{10, 10, 10}, {20, 20, 20}},
		perRound: []roundCost{
			{units: 100, wall: time.Second, cpu: time.Second, speed: 1},
			{units: 100, wall: 2 * time.Second, cpu: 2 * time.Second, speed: 0.5},
		},
	}
	got := r.endToEndValues(90)
	for name, want := range map[string]float64{
		"setup_s": 1, "units_per_s": 100, "op_ms_p50": 10, "op_ms_tail": 10, "cpu_us_per_unit": 10000, "op_growth_x": 1,
	} {
		if math.Abs(got[name]-want) > 1e-9*want {
			t.Errorf("%s = %g, want %g", name, got[name], want)
		}
	}
}
