package davide

// BenchmarkE21ObsOverhead is the observability-overhead bound
// (DESIGN.md §9.4): a 1024-node, 8-rack tiered fabric streamed bare
// versus with a full obs.Registry attached — stage trace stamping at
// every pipeline hop, per-rack histograms, and every migrated counter
// family live. The fabric's claim is that instrumentation is
// effectively free: the instrumented plane must stay within 5%
// samples/s of the uninstrumented one. There is no baseline file: the
// benchmark fails itself, so `go test -run '^$' -bench E21ObsOverhead .`
// is the whole gate.
//
// Measuring a 5% bound on a shared runner takes care: run-to-run wall
// noise on the same plane exceeds 20%, dwarfing the effect. Both
// planes stream one untimed warm-up window (gateway dialing and
// buffer-pool fill stay out of the comparison) and the bare /
// instrumented order alternates from pair to pair, so linear
// thermal or scheduler drift cancels. The verdict then requires three
// estimators with independent failure modes to all blow the budget:
// the per-side minimum stream time (noise is strictly additive, so
// minimums converge on the noise-free cost — but a lucky bare floor
// fakes an overhead), the median of per-pair instrumented/bare
// ratios (robust to outliers — but shifts with era-wide load
// changes), and the gap between per-side minimum process CPU times
// (external load lands in wall clocks, not this process's cycles, and
// the contention cycles it does induce — cache misses, futex spins —
// are additive, so per-run minimums shed them too; but CPU is blind
// to overhead that parks rather than computes, which the wall
// estimators catch). A genuinely over-budget build trips all three; a
// busy runner era rarely trips them together, and extra make-up pairs
// let the minimums recover.

import (
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"davide/internal/fleet"
	"davide/internal/obs"
	"davide/internal/sensor"
)

// e21Streams builds distinct per-node waveforms, the fabric-1k shape:
// 200 samples/node per window, enough batches per node that broker
// fan-out and ingest sharding dominate, not setup.
func e21Streams(n int) []fleet.NodeStream {
	out := make([]fleet.NodeStream, n)
	for i := range out {
		out[i] = fleet.NodeStream{
			Node: i,
			Signal: sensor.Sum{
				sensor.Const(300 + float64(i%32)),
				sensor.Square{Low: 0, High: 900, Period: 2 + 0.01*float64(i%100), Duty: 0.4},
			},
		}
	}
	return out
}

func BenchmarkE21ObsOverhead(b *testing.B) {
	const t0, t1, sampleRate, batch = 0.0, 4.0, 50.0, 64
	const nodes, budgetPct = 1024, 5.0
	// The fewest alternated pairs the estimators mean something on. The
	// benchmark runs them itself when b.N asks for fewer, so no
	// -benchtime can switch the verdict off.
	const minPairs = 8
	newPlane := func(reg *obs.Registry) *fleet.Plane {
		p, err := fleet.NewPlane(fleet.PlaneSpec{
			Racks:     8,
			NodesHint: nodes,
			Gateway: fleet.GatewaySpec{
				SampleRate: sampleRate, BatchSamples: batch, ClientPrefix: "e21gw",
			},
			Obs: reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	reg := obs.NewRegistry()
	bare := newPlane(nil)
	defer func() { _ = bare.Close() }()
	instr := newPlane(reg)
	defer func() { _ = instr.Close() }()
	streams := e21Streams(nodes)
	var st fleet.PlaneStats
	const far = time.Duration(1 << 62)
	minBareCPU, minInstrCPU := far, far
	run := func(p *fleet.Plane) time.Duration {
		cpu0 := processCPUTime()
		start := time.Now()
		var err error
		if st, err = p.Stream(context.Background(), streams, t0, t1); err != nil {
			b.Fatal(err)
		}
		wall := time.Since(start)
		dcpu := processCPUTime() - cpu0
		if p == bare {
			minBareCPU = min(minBareCPU, dcpu)
		} else {
			minInstrCPU = min(minInstrCPU, dcpu)
		}
		return wall
	}
	run(bare)
	run(instr)
	minBareCPU, minInstrCPU = far, far // warm-up stays out of every estimator
	var bareT, instrT time.Duration
	var ratios []float64
	minBare, minInstr := far, far
	pair := func(i int) {
		var db, di time.Duration
		if i%2 == 0 {
			db = run(bare)
			di = run(instr)
		} else {
			di = run(instr)
			db = run(bare)
		}
		bareT += db
		instrT += di
		ratios = append(ratios, float64(di)/float64(db))
		minBare = min(minBare, db)
		minInstr = min(minInstr, di)
	}
	minGapPct := func() float64 {
		return 100 * (minInstr - minBare).Seconds() / minBare.Seconds()
	}
	medianPct := func() float64 {
		sorted := append([]float64(nil), ratios...)
		sort.Float64s(sorted)
		return 100 * (sorted[len(sorted)/2] - 1)
	}
	cpuPct := func() float64 {
		if minBareCPU <= 0 || minBareCPU == far {
			return 100 // rusage unavailable: wall estimators decide alone
		}
		return 100 * float64(minInstrCPU-minBareCPU) / float64(minBareCPU)
	}
	overBudget := func() bool {
		return minGapPct() > budgetPct && medianPct() > budgetPct && cpuPct() > budgetPct
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair(i)
	}
	b.StopTimer()
	for i := b.N; i < minPairs; i++ {
		pair(i)
	}
	// The registry must have seen the pipeline, or the instrumented
	// side was silently a no-op and the comparison meaningless.
	if !strings.Contains(reg.Text(false), `davide_stage_batches_total{stage="commit"`) {
		b.Fatal("instrumented plane produced no commit-stage stamps")
	}
	samples := float64(st.Samples) * float64(len(ratios))
	b.ReportMetric(samples/instrT.Seconds(), "samples/s")
	b.ReportMetric(samples/bareT.Seconds(), "bare-samples/s")
	// An over-budget reading gets extra untimed make-up pairs before the
	// verdict: minimums only converge downward, so a noisy runner
	// recovers while a genuinely over-budget build keeps failing.
	for extra := 0; extra < 32 && overBudget(); extra++ {
		pair(extra)
	}
	if overBudget() {
		b.Errorf("instrumentation over budget: min-gap %.1f%%, median %.1f%%, cpu %.1f%% all exceed %.0f%% (min %.0f ms vs %.0f ms per stream)",
			minGapPct(), medianPct(), cpuPct(), budgetPct,
			minInstr.Seconds()*1000, minBare.Seconds()*1000)
	}
	b.ReportMetric(medianPct(), "overhead-%")
	b.ReportMetric(cpuPct(), "cpu-overhead-%")
}
