package davide

// E18 — chaos soak: the telemetry pipeline's accounting invariants must
// survive adversarial transport. Every chaos preset replays a scheduled
// pilot window through real gateways, a real broker and real subscriber
// agents while the chaos links inject loss, duplication, reordering,
// corruption, partitions and session crashes.
// Asserted invariants:
//
//   - determinism: the same (preset, seed) reproduces bit-identical
//     fault counters, aggregator Reordered/undecodable counts and
//     delivered energy error across independent runs;
//   - causality: aggregator-side effects match injected causes exactly
//     (Reordered == duplicates + late releases, undecodable drops ==
//     corrupted packets, link packets == gateway batches);
//   - bounded accounting error: MaxEnergyErrPct stays within each
//     preset's documented bound (ChaosErrBound);
//   - no panics, no data races (the suite runs under -race in CI), no
//     broker queue overflow (which would make loss unaccounted).

import (
	"fmt"
	"reflect"
	"testing"

	"davide/internal/core"
	"davide/internal/fleet"
	"davide/internal/gateway"
	"davide/internal/sched"
	"davide/internal/workload"
)

// e18System builds a scheduled 45-node system whose node signals the
// chaos replays stream.
func e18System(t *testing.T) *core.System {
	t.Helper()
	gen, err := workload.NewGenerator(workload.DefaultGeneratorConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := gen.Batch(300)
	if err != nil {
		t.Fatal(err)
	}
	base := jobs[0].SubmitAt
	for i := range jobs {
		jobs[i].SubmitAt -= base
	}
	sys, err := core.NewSystem(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunScheduled(jobs, sched.Config{}, sched.NewEASYStrategy()); err != nil {
		t.Fatal(err)
	}
	return sys
}

// e18Replay runs one chaos replay: 8 nodes, 20 virtual seconds at
// 200 S/s with 64-sample batches (≈ 63 packets per node, enough for
// per-packet fault statistics on every preset).
func e18Replay(tb testing.TB, sys *core.System, preset string, seed int64) core.StreamResult {
	tb.Helper()
	plan, err := fleet.ChaosPreset(preset, seed)
	if err != nil {
		tb.Fatal(err)
	}
	sys.StreamFaults = plan
	sys.StreamBatchSamples = 64
	defer func() {
		sys.StreamFaults = nil
		sys.StreamBatchSamples = 0
	}()
	res, err := sys.StreamWindow(0, 20, 200, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestE18ChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak: skipped in -short")
	}
	sys := e18System(t)
	const seed = 7
	for _, preset := range fleet.ChaosPresetNames() {
		bound, err := fleet.ChaosErrBound(preset)
		if err != nil {
			t.Fatal(err)
		}
		// The wire format in the subtest name keeps the IDs this soak
		// has always reported.
		t.Run(fmt.Sprintf("%s/%s", preset, gateway.CodecBinary), func(t *testing.T) {
			r1 := e18Replay(t, sys, preset, seed)
			r2 := e18Replay(t, sys, preset, seed)

			// Same seed ⇒ same injected faults, same aggregator-side
			// effects, same delivered accuracy.
			if !reflect.DeepEqual(r1.Faults, r2.Faults) {
				t.Fatalf("fault counters differ across identical runs:\n%+v\n%+v", r1.Faults, r2.Faults)
			}
			if r1.ReorderedBatches != r2.ReorderedBatches || r1.UndecodableDropped != r2.UndecodableDropped {
				t.Fatalf("aggregator effects differ: reordered %d/%d undecodable %d/%d",
					r1.ReorderedBatches, r2.ReorderedBatches, r1.UndecodableDropped, r2.UndecodableDropped)
			}
			if r1.MaxEnergyErrPct != r2.MaxEnergyErrPct {
				t.Fatalf("energy error differs: %v vs %v", r1.MaxEnergyErrPct, r2.MaxEnergyErrPct)
			}
			if r1.GatewayRestarts != r2.GatewayRestarts {
				t.Fatalf("restarts differ: %d vs %d", r1.GatewayRestarts, r2.GatewayRestarts)
			}

			// Exact causality between injected faults and observed
			// effects. Broker overflow would break it; assert none.
			if r1.BrokerDropped != 0 {
				t.Fatalf("broker dropped %d messages (queue overflow)", r1.BrokerDropped)
			}
			// The store's rolling head window must absorb every late
			// release and duplicate redelivery — a sample behind the
			// sealed horizon would be silent, unaccounted loss.
			if r1.StoreOutOfOrderDropped != 0 {
				t.Fatalf("store dropped %d samples behind the sealed horizon (unaccounted loss)", r1.StoreOutOfOrderDropped)
			}
			if int64(r1.ReorderedBatches) != r1.Faults.ExpectedReorders() {
				t.Fatalf("reordered %d != injected dup+late %d", r1.ReorderedBatches, r1.Faults.ExpectedReorders())
			}
			if int64(r1.UndecodableDropped) != r1.Faults.Corrupted {
				t.Fatalf("undecodable %d != corrupted %d", r1.UndecodableDropped, r1.Faults.Corrupted)
			}
			if int(r1.Faults.Sent) != r1.BatchesSent {
				t.Fatalf("link saw %d packets, gateways sent %d batches", r1.Faults.Sent, r1.BatchesSent)
			}
			if r1.GatewayRestarts != int(r1.Faults.Crashes) {
				t.Fatalf("restarts %d != crashes %d", r1.GatewayRestarts, r1.Faults.Crashes)
			}
			if r1.Faults.Lost()+r1.Faults.Duplicated+r1.Faults.Held+r1.Faults.Crashes == 0 {
				t.Fatalf("preset %s injected nothing: %+v", preset, r1.Faults)
			}

			// The documented per-preset accounting-error bound.
			if r1.MaxEnergyErrPct > bound {
				t.Fatalf("MaxEnergyErrPct %.4f%% exceeds %s bound %.1f%%", r1.MaxEnergyErrPct, preset, bound)
			}

			// A different seed must shift the schedule (guards
			// against the seed being ignored somewhere).
			r3 := e18Replay(t, sys, preset, seed+1)
			if reflect.DeepEqual(r1.Faults, r3.Faults) {
				t.Fatalf("seed change did not change fault schedule: %+v", r1.Faults)
			}
		})
	}
}
