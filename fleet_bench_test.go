package davide

// BenchmarkE15FleetReplay extends the DESIGN.md experiment series with the
// telemetry-fleet scaling claim: replaying a window of the whole pilot
// through real gateways -> MQTT broker -> aggregator is bounded by the
// slowest node, not the sum of all nodes, once the fleet streams
// concurrently. Sequential (1 worker) is the paper-faithful baseline;
// concurrent (one worker per CPU) is the production configuration. The
// energy error must not depend on the mode: gateway seeds are per node.

import (
	"fmt"
	"testing"

	"davide/internal/sched"
	"davide/internal/workload"
)

// benchStreamSystem builds a scheduled 45-node system whose node signals
// the fleet benchmarks (and the E18 chaos soak suite) replay.
func benchStreamSystem(tb testing.TB) *System {
	tb.Helper()
	g, err := workload.NewGenerator(workload.DefaultGeneratorConfig(21))
	if err != nil {
		tb.Fatal(err)
	}
	jobs, err := g.Batch(300)
	if err != nil {
		tb.Fatal(err)
	}
	base := jobs[0].SubmitAt
	for i := range jobs {
		jobs[i].SubmitAt -= base
	}
	sys, err := NewSystem(nil)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sys.RunScheduled(jobs, sched.Config{}, sched.NewEASYStrategy()); err != nil {
		tb.Fatal(err)
	}
	return sys
}

func BenchmarkE15FleetReplay(b *testing.B) {
	sys := benchStreamSystem(b)
	modes := []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"concurrent", 0}, // one worker per CPU
	}
	for _, nodes := range []int{8, 16, 45} {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s-%02dnodes", mode.name, nodes), func(b *testing.B) {
				sys.StreamWorkers = mode.workers
				var res StreamResult
				var err error
				for i := 0; i < b.N; i++ {
					res, err = sys.StreamWindow(0, 60, 50, nodes)
					if err != nil {
						b.Fatal(err)
					}
					if res.MaxEnergyErrPct > 1.0 {
						b.Fatalf("energy error %v%% exceeds 1%%", res.MaxEnergyErrPct)
					}
				}
				b.ReportMetric(res.MaxEnergyErrPct, "max-err-%")
				b.ReportMetric(float64(res.SamplesSent), "samples")
				b.ReportMetric(float64(res.BrokerDropped), "dropped")
			})
		}
	}
}
