package main

import (
	"reflect"
	"testing"

	"davide/internal/core"
	"davide/internal/sched"
)

// The timing decorator must not change a single scheduling decision: a
// run through it is bit-identical to built-in power-aware admission.
func TestTimedStrategyKeepsScheduleBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two closed loops over real MQTT")
	}
	train, work, err := controlJobs(7, 12)
	if err != nil {
		t.Fatal(err)
	}
	live := func(s sched.Strategy) *core.LiveResult {
		sys, err := core.NewSystem(train)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunLive(work, liveConfig(s, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	timed := &timedStrategy{Strategy: sched.NewPowerAwareStrategy()}
	a, b := live(nil), live(timed)
	if a.Ticks != b.Ticks || a.MeasuredEnergyJ != b.MeasuredEnergyJ || a.MaxOverPct != b.MaxOverPct ||
		a.RefusedAdmissions != b.RefusedAdmissions || !reflect.DeepEqual(a.Assignments, b.Assignments) {
		t.Errorf("decorated run diverged: ticks %d/%d energy %v/%v refused %d/%d",
			a.Ticks, b.Ticks, a.MeasuredEnergyJ, b.MeasuredEnergyJ, a.RefusedAdmissions, b.RefusedAdmissions)
	}
	if int(timed.tick) != b.Ticks || timed.total <= 0 {
		t.Errorf("decorator saw %d dispatches over %d ticks (total %v)", timed.tick, b.Ticks, timed.total)
	}
}
