package davide

// E19 — the closed loop: FIFO vs power-aware admission on the *live*
// control plane, where every scheduling decision reads measured power
// back out of the telemetry store the fleet is streaming into over real
// MQTT — under clean transport and under chaos presets that degrade the
// telemetry the scheduler depends on. Asserted invariants:
//
//   - cap holding: power-aware admission plus reactive capping keeps the
//     true machine power within each scenario's documented overshoot
//     bound (e19Bounds) even while the chaos links lose, corrupt and
//     partition the measurements — degraded telemetry is handled with
//     the capping loop's hold-last-safe rule, never by assuming a silent
//     node went idle;
//   - the FIFO baseline, blind to power, overshoots the same cap by
//     >15 % on every scenario (the paper's argument for power-aware
//     dispatch);
//   - determinism: the same (preset, seed) reproduces the identical
//     schedule, fault ledger, stale-read count and measured energy;
//   - accounting closure: the per-job §IV phase view rebuilt from the
//     store equals the controller's accounting-ledger records, and the
//     store sealed-horizon drop count stays zero;
//   - split-brain partitions actually exercise the degraded path: stale
//     reads and per-rack control-loop holds are observed.

import (
	"math"
	"testing"

	"davide/internal/core"
	"davide/internal/fleet"
	"davide/internal/sched"
	"davide/internal/workload"
)

// e19Bounds documents the worst tolerated true-power overshoot above the
// cap (percent) for power-aware admission per telemetry scenario. Clean
// telemetry still carries prediction error (per-job power spread the
// predictor cannot see); the chaos bounds add the measurement hole each
// loss pattern can open before reactive capping pulls the machine back
// under. "" is clean transport.
var e19Bounds = map[string]float64{
	"":                         5,
	fleet.ChaosLossyRack:       8,
	fleet.ChaosSplitBrain:      8,
	fleet.ChaosFlappingGateway: 8,
	fleet.ChaosCorruptWire:     12,
}

// e19Workload is the scaled pilot mix the loop schedules: 24 jobs of
// 1-4 nodes with ~5 minute runtimes on a 12-node machine, hot enough
// that running everything at once oversubscribes the 14 kW cap.
func e19Workload(tb testing.TB, seed int64) (train, work []workload.Job) {
	tb.Helper()
	cfg := workload.DefaultGeneratorConfig(seed)
	cfg.MaxNodes = 4
	cfg.MeanInterarrival = 60
	cfg.MeanRuntime = 300
	cfg.RuntimeSigma = 0.6
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if train, err = gen.Batch(600); err != nil {
		tb.Fatal(err)
	}
	if work, err = gen.Batch(24); err != nil {
		tb.Fatal(err)
	}
	base := work[0].SubmitAt
	for i := range work {
		work[i].SubmitAt -= base
	}
	return train, work
}

const (
	e19Nodes = 12
	e19CapW  = 14000
	e19Tick  = 15
)

// lookupStrategy resolves a sched registry name or fails the test.
func lookupStrategy(tb testing.TB, name string) sched.Strategy {
	tb.Helper()
	s, err := sched.Lookup(name)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// e19Run executes one closed-loop scenario under the named strategy.
func e19Run(tb testing.TB, policy string, reactive bool, preset string, seed int64) *core.LiveResult {
	tb.Helper()
	train, work := e19Workload(tb, seed)
	sys, err := core.NewSystem(train)
	if err != nil {
		tb.Fatal(err)
	}
	if preset != "" {
		plan, err := fleet.ChaosPreset(preset, seed)
		if err != nil {
			tb.Fatal(err)
		}
		sys.StreamFaults = plan
		sys.StreamBatchSamples = 16
	}
	res, err := sys.RunLive(work, core.LiveConfig{
		Nodes:      e19Nodes,
		SampleRate: 4,
		RackSize:   6, // two capping racks on the 12-node machine
		Sched: sched.ControllerConfig{
			Strategy: lookupStrategy(tb, policy),
			Config:   sched.Config{PowerCapW: e19CapW, ReactiveCapping: reactive},
			TickS:    e19Tick,
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestE19ClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop suite: skipped in -short")
	}
	const seed = 7
	presets := []string{"", fleet.ChaosLossyRack, fleet.ChaosSplitBrain, fleet.ChaosFlappingGateway, fleet.ChaosCorruptWire}
	for _, preset := range presets {
		preset := preset
		label := preset
		if label == "" {
			label = "clean"
		}
		t.Run(label, func(t *testing.T) {
			power := e19Run(t, "power", true, preset, seed)
			fifo := e19Run(t, "fifo", false, preset, seed)

			// Cap holding under (possibly degraded) telemetry.
			bound := e19Bounds[preset]
			if power.MaxOverPct > bound {
				t.Errorf("power-aware overshoot %.2f%% exceeds the documented %g%% bound", power.MaxOverPct, bound)
			}
			if frac := power.CapViolationSec / power.Makespan; frac > 0.25 {
				t.Errorf("power-aware spent %.0f%% of the run above cap", 100*frac)
			}
			// The power-blind baseline overshoots hard on every scenario.
			if fifo.MaxOverPct < 15 {
				t.Errorf("FIFO overshoot only %.2f%% — workload no longer oversubscribes the cap", fifo.MaxOverPct)
			}
			if fifo.CapViolationSec == 0 {
				t.Error("FIFO never violated the cap")
			}
			// Online retraining ran from measured completions.
			if power.Retrains == 0 {
				t.Error("no online predictor retrains")
			}
			// Telemetry loss must never become unaccounted store loss.
			if power.StoreOutOfOrderDropped != 0 {
				t.Errorf("store dropped %d samples behind the sealed horizon", power.StoreOutOfOrderDropped)
			}
			// Accounting closure: the §IV phase view rebuilt from the
			// store equals the ledger records built at completion time.
			if len(power.JobPhases) == 0 {
				t.Fatal("no job phases reconstructed")
			}
			for id, ph := range power.JobPhases {
				rec, err := power.Ledger.Job(id)
				if err != nil {
					t.Fatalf("job %d: %v", id, err)
				}
				if math.Abs(ph.EnergyJ-rec.EnergyJ) > 1e-6*math.Max(1, rec.EnergyJ) {
					t.Errorf("job %d: phase energy %.3f J != ledger %.3f J", id, ph.EnergyJ, rec.EnergyJ)
				}
			}
		})
	}

	t.Run("degraded-path-exercised", func(t *testing.T) {
		res := e19Run(t, "power", true, fleet.ChaosSplitBrain, seed)
		if res.StaleReads == 0 {
			t.Error("split-brain produced no stale telemetry reads")
		}
		held := 0
		for _, r := range res.Racks {
			held += r.Held
		}
		if held == 0 {
			t.Error("no per-rack control loop ever held on stale telemetry")
		}
	})

	t.Run("deterministic", func(t *testing.T) {
		a := e19Run(t, "power", true, fleet.ChaosLossyRack, seed)
		b := e19Run(t, "power", true, fleet.ChaosLossyRack, seed)
		if a.Faults != b.Faults {
			t.Errorf("fault ledgers differ:\n%+v\n%+v", a.Faults, b.Faults)
		}
		if a.StaleReads != b.StaleReads || a.Ticks != b.Ticks ||
			a.CapViolationSec != b.CapViolationSec || a.MeasuredEnergyJ != b.MeasuredEnergyJ {
			t.Errorf("runs diverged: %d/%d ticks, %d/%d stale, %g/%g viol, %g/%g J",
				a.Ticks, b.Ticks, a.StaleReads, b.StaleReads,
				a.CapViolationSec, b.CapViolationSec, a.MeasuredEnergyJ, b.MeasuredEnergyJ)
		}
	})
}
