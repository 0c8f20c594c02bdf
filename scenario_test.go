package davide

// E22 — the scenario matrix: every named scenario in the registry
// (grid-interactive arrival shaping, demand-response and carbon cap
// trajectories, thermal DVFS events, composed phase-windowed chaos)
// run through the live closed-loop control plane under both FIFO and
// power-aware admission. Asserted invariants:
//
//   - degradation bounds: each power-aware run holds its scenario's
//     documented cap-overshoot bound — both on true power (the
//     controller view) and on the measured total the controller acted
//     on at tick time (the measured view), each against the
//     ramp-limited effective cap — and its measured-vs-true
//     energy-error bound, including composed chaos striking during a
//     cap ramp;
//   - the power-blind FIFO baseline overshoots harder than power-aware
//     admission on every scenario;
//   - determinism: the same (scenario, seed) reproduces bit-identical
//     results — schedule, fault ledger, stale reads, brownout
//     transitions, measured energy and the per-phase overlay;
//   - brownout closes the loop: under the stale-brownout scenario the
//     controller engages brownout on the injected staleness AND
//     releases it after the partition heals, without breaching the
//     scenario's bound;
//   - accounting closure: the per-job §IV phase view rebuilt from the
//     store equals the controller's ledger records, and the store's
//     sealed-horizon drop count stays zero on every scenario.

import (
	"testing"

	"davide/internal/core"
	"davide/internal/scenario"
	"davide/internal/sched"
)

const (
	e22Nodes = 12
	e22CapW  = 14000
	e22Tick  = 15
	e22Seed  = 7
)

// e22Run executes one scenario on the live control plane (same machine
// geometry as E19: 12 nodes, 14 kW, 15 s ticks, 24 jobs hot enough to
// oversubscribe the cap).
func e22Run(tb testing.TB, name, policy string, reactive bool, seed int64) *core.ScenarioResult {
	tb.Helper()
	sc, err := scenario.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	train, work := e19Workload(tb, seed)
	sys, err := core.NewSystem(train)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := sys.RunScenario(sc, seed, work, core.LiveConfig{
		Nodes:      e22Nodes,
		SampleRate: 4,
		RackSize:   6,
		Sched: sched.ControllerConfig{
			Strategy: lookupStrategy(tb, policy),
			Config:   sched.Config{PowerCapW: e22CapW, ReactiveCapping: reactive},
			TickS:    e22Tick,
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestE22ScenarioMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario matrix: skipped in -short")
	}
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := scenario.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			power := e22Run(t, name, "power", true, e22Seed)
			fifo := e22Run(t, name, "fifo", false, e22Seed)

			// Documented degradation bounds, controller view: worst true
			// overshoot above the ramp-limited effective cap.
			if power.MaxOverPct > sc.MaxOverPct {
				t.Errorf("power-aware controller overshoot %.2f%% exceeds the documented %g%% bound",
					power.MaxOverPct, sc.MaxOverPct)
			}
			// Measured view: the measured total the controller acted on
			// must stay within the same bound. (Measured telemetry trails
			// true power by the gateway averaging window and holds stale
			// values under loss, so this is an independent check, not a
			// restatement.)
			if power.MaxMeasuredOverPct > sc.MaxOverPct {
				t.Errorf("measured overshoot %.2f%% exceeds the documented %g%% bound", power.MaxMeasuredOverPct, sc.MaxOverPct)
			}
			if errPct := power.EnergyErrPct(); errPct > sc.MaxEnergyErrPct {
				t.Errorf("energy error %.3f%% exceeds the documented %g%% bound", errPct, sc.MaxEnergyErrPct)
			}
			// The power-blind baseline must do worse on every scenario.
			if fifo.MaxOverPct <= power.MaxOverPct {
				t.Errorf("FIFO overshoot %.2f%% does not exceed power-aware %.2f%% — workload no longer stresses the cap",
					fifo.MaxOverPct, power.MaxOverPct)
			}
			if fifo.MaxOverPct < 15 {
				t.Errorf("FIFO overshoot only %.2f%% — scenario lost its cap pressure", fifo.MaxOverPct)
			}
			// Telemetry loss never becomes unaccounted store loss.
			if power.StoreOutOfOrderDropped != 0 {
				t.Errorf("store dropped %d samples behind the sealed horizon", power.StoreOutOfOrderDropped)
			}
			// Accounting closure: store-rebuilt phases equal the ledger
			// records bit for bit (one node sum behind both).
			if len(power.JobPhases) == 0 {
				t.Fatal("no job phases reconstructed")
			}
			for id, ph := range power.JobPhases {
				rec, err := power.Ledger.Job(id)
				if err != nil {
					t.Fatalf("job %d: %v", id, err)
				}
				if ph.EnergyJ != rec.EnergyJ || ph.T0 != rec.StartAt || ph.T1 != rec.EndAt {
					t.Errorf("job %d: phase %v J over [%v, %v] != ledger %v J over [%v, %v]",
						id, ph.EnergyJ, ph.T0, ph.T1, rec.EnergyJ, rec.StartAt, rec.EndAt)
				}
			}
			// Every declared report phase that the run reached got scored.
			if len(power.PhaseOvershoot) == 0 {
				t.Error("no cap-tracking phases reported")
			}
			for _, ph := range power.PhaseOvershoot {
				if ph.T0 < power.Makespan && ph.Ticks == 0 {
					t.Errorf("phase %s [%g, %g) inside the run scored no ticks", ph.Phase, ph.T0, ph.T1)
				}
			}
		})
	}

	t.Run("brownout-engages-and-releases", func(t *testing.T) {
		res := e22Run(t, scenario.ScenarioStaleBrownout, "power", true, e22Seed)
		if res.StaleReads == 0 {
			t.Fatal("split-brain window produced no stale telemetry reads")
		}
		if res.BrownoutTicks == 0 {
			t.Error("brownout never engaged under injected staleness")
		}
		// Engage + release each count one transition; a healed run must
		// end released, so the count is even and at least 2.
		if res.BrownoutTransitions < 2 {
			t.Errorf("brownout transitions = %d, want >= 2 (engage AND release)", res.BrownoutTransitions)
		}
		if res.BrownoutTransitions%2 != 0 {
			t.Errorf("brownout transitions = %d, want even (run must end released)", res.BrownoutTransitions)
		}
		if res.BrownoutTicks >= res.Ticks {
			t.Errorf("browned out for all %d ticks — mode never released", res.Ticks)
		}

		// Brownout cannot undo the partition-onset peak (already-running
		// jobs keep ramping on phantom headroom), but it must strictly
		// reduce the time spent over cap vs the same run disarmed.
		sc, err := scenario.Get(scenario.ScenarioStaleBrownout)
		if err != nil {
			t.Fatal(err)
		}
		disarmed := *sc
		disarmed.BrownoutStaleFrac = 0
		train, work := e19Workload(t, e22Seed)
		sys, err := core.NewSystem(train)
		if err != nil {
			t.Fatal(err)
		}
		off, err := sys.RunScenario(&disarmed, e22Seed, work, core.LiveConfig{
			Nodes:      e22Nodes,
			SampleRate: 4,
			RackSize:   6,
			Sched: sched.ControllerConfig{
				Strategy: sched.NewPowerAwareStrategy(),
				Config:   sched.Config{PowerCapW: e22CapW, ReactiveCapping: true},
				TickS:    e22Tick,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if off.BrownoutTicks != 0 || off.BrownoutTransitions != 0 {
			t.Fatalf("disarmed run browned out (%d ticks)", off.BrownoutTicks)
		}
		if res.CapViolationSec >= off.CapViolationSec {
			t.Errorf("brownout did not reduce cap violation time: %g s armed vs %g s disarmed",
				res.CapViolationSec, off.CapViolationSec)
		}
	})

	t.Run("deterministic", func(t *testing.T) {
		// The fullest composition: cap ramp + windowed chaos + brownout.
		a := e22Run(t, scenario.ScenarioRampChaos, "power", true, e22Seed)
		b := e22Run(t, scenario.ScenarioRampChaos, "power", true, e22Seed)
		if a.Faults != b.Faults {
			t.Errorf("fault ledgers differ:\n%+v\n%+v", a.Faults, b.Faults)
		}
		if a.StaleReads != b.StaleReads || a.Ticks != b.Ticks ||
			a.MeasuredEnergyJ != b.MeasuredEnergyJ || a.CapViolationSec != b.CapViolationSec ||
			a.BrownoutTransitions != b.BrownoutTransitions || a.BrownoutTicks != b.BrownoutTicks ||
			a.FinalCapW != b.FinalCapW || a.EnergyErrPct() != b.EnergyErrPct() ||
			a.MaxMeasuredOverPct != b.MaxMeasuredOverPct {
			t.Errorf("runs diverged: %d/%d ticks, %d/%d stale, %g/%g J, %d/%d brownout transitions",
				a.Ticks, b.Ticks, a.StaleReads, b.StaleReads,
				a.MeasuredEnergyJ, b.MeasuredEnergyJ, a.BrownoutTransitions, b.BrownoutTransitions)
		}
		if len(a.PhaseOvershoot) != len(b.PhaseOvershoot) {
			t.Fatalf("overlay phase counts differ: %d vs %d", len(a.PhaseOvershoot), len(b.PhaseOvershoot))
		}
		for i := range a.PhaseOvershoot {
			if a.PhaseOvershoot[i] != b.PhaseOvershoot[i] {
				t.Errorf("overlay phase %d diverged:\n%+v\n%+v", i, a.PhaseOvershoot[i], b.PhaseOvershoot[i])
			}
		}
		for id, nn := range a.Assignments {
			bn, ok := b.Assignments[id]
			if !ok || len(nn) != len(bn) {
				t.Fatalf("job %d assignment diverged", id)
			}
			for i := range nn {
				if nn[i] != bn[i] {
					t.Fatalf("job %d node list diverged", id)
				}
			}
		}
	})
}
