package davide

// This file is the benchmark harness of deliverable (d): one Benchmark per
// experiment in DESIGN.md §4 (E1-E14), each regenerating the corresponding
// claim of the paper and reporting its headline figure via b.ReportMetric.
// `go test -bench=. -benchmem` prints every row EXPERIMENTS.md records.

import (
	"fmt"
	"testing"

	"davide/internal/apps"
	"davide/internal/capping"
	"davide/internal/cluster"
	"davide/internal/gateway"
	"davide/internal/monitors"
	"davide/internal/mqtt"
	"davide/internal/node"
	"davide/internal/predictor"
	"davide/internal/ptp"
	"davide/internal/rack"
	"davide/internal/sched"
	"davide/internal/sensor"
	"davide/internal/thermal"
	"davide/internal/units"
	"davide/internal/workload"
)

// benchJobs generates a deterministic workload for scheduling benches.
func benchJobs(b *testing.B, n int, seed int64) []workload.Job {
	b.Helper()
	g, err := workload.NewGenerator(workload.DefaultGeneratorConfig(seed))
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := g.Batch(n)
	if err != nil {
		b.Fatal(err)
	}
	return jobs
}

// BenchmarkE1SystemEfficiency regenerates the pilot's headline numbers:
// ~1 PFlops peak, <100 kW, ~10 GFlops/W (paper §I and §II-I).
func BenchmarkE1SystemEfficiency(b *testing.B) {
	var res cluster.LinpackResult
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.PilotConfig())
		if err != nil {
			b.Fatal(err)
		}
		res, err = c.RunLinpack(0.75)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.PeakFlops.TFlops(), "peak-TFlops")
	b.ReportMetric(res.FacilityPowerW.KW(), "facility-kW")
	b.ReportMetric(res.GFlopsPerWatt, "GFlops/W")
}

// BenchmarkE2CoolingSplit regenerates the 75-80 % liquid heat split and
// the cooling overhead across facility inlet temperatures (§II-C/G/I).
func BenchmarkE2CoolingSplit(b *testing.B) {
	var last thermal.CoolingEfficiency
	for i := 0; i < b.N; i++ {
		for _, inlet := range []units.Celsius{25, 35, 44} {
			loop, err := thermal.NewLoop(inlet, 30, 0.78, 18)
			if err != nil {
				b.Fatal(err)
			}
			fans := []*thermal.Fan{thermal.OpenRackFan(), thermal.OpenRackFan(), thermal.OpenRackFan(), thermal.OpenRackFan()}
			last, err = thermal.EvaluateLoop(loop, 32000, fans, 2500, 150)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(100*float64(last.LiquidHeat)/float64(last.ITPower), "liquid-heat-%")
	b.ReportMetric(100*last.CoolingOver, "cooling-overhead-%")
	b.ReportMetric(float64(last.OutletTemp), "outlet-C")
}

// BenchmarkE3PSUConsolidation regenerates the up-to-5 % saving of the
// OpenRack power bank vs per-node PSUs (§II-F).
func BenchmarkE3PSUConsolidation(b *testing.B) {
	var cmp rack.Comparison
	var err error
	for i := 0; i < b.N; i++ {
		cmp, err = rack.Compare(15, 2000, 32000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.SavingPct, "AC-saving-%")
	b.ReportMetric(float64(cmp.NodePSUCount-cmp.RackPSUCount), "PSUs-removed")
	b.ReportMetric(cmp.NodeNoisePct/cmp.RackNoisePct, "noise-improvement-x")
}

// BenchmarkE4MonitoringError regenerates the monitoring comparison of
// §V-C: energy-estimation error of IPMI / ArduPower / HDEEM / EG on a
// bursty application signal.
func BenchmarkE4MonitoringError(b *testing.B) {
	sig := sensor.Sum{
		sensor.Const(400),
		sensor.Square{Low: 0, High: 1600, Period: 0.02, Duty: 0.2, Phase: 0.0013},
	}
	var results []monitors.Result
	var err error
	for i := 0; i < b.N; i++ {
		results, err = monitors.CompareAll(sig, 0, 1.0, 3000, int64(1000+i))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		switch r.Class {
		case monitors.IPMI:
			b.ReportMetric(r.RelErrorPct, "IPMI-err-%")
		case monitors.ArduPower:
			b.ReportMetric(r.RelErrorPct, "ArduPower-err-%")
		case monitors.HDEEM:
			b.ReportMetric(r.RelErrorPct, "HDEEM-err-%")
		case monitors.EnergyGateway:
			b.ReportMetric(r.RelErrorPct, "EG-err-%")
		}
	}
}

// BenchmarkE5PTPSync regenerates the PTP synchronisation quality that
// makes cross-node trace correlation possible (§III-A1, ref [13]).
func BenchmarkE5PTPSync(b *testing.B) {
	var steady float64
	for i := 0; i < b.N; i++ {
		master, err := ptp.NewClock(0, 0, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		slave, err := ptp.NewClock(8e-3, 20e-6, 1e-7, int64(2+i))
		if err != nil {
			b.Fatal(err)
		}
		path, err := ptp.NewPath(1e-6, 0, 50e-9, 3)
		if err != nil {
			b.Fatal(err)
		}
		sess := &ptp.Session{Master: master, Slave: slave, Path: path, Servo: ptp.DefaultServo(), ReqGap: 100e-6}
		res, err := sess.Run(0, 1.0, 60)
		if err != nil {
			b.Fatal(err)
		}
		steady = ptp.RMS(res, 20)
	}
	b.ReportMetric(steady*1e6, "sync-RMS-µs")
}

// BenchmarkE6TelemetryScale measures the real MQTT broker fanning out
// gateway batches from all 45 nodes to two subscriber agents (§III-A1's
// scalability requirement). Wall-clock throughput is the metric.
func BenchmarkE6TelemetryScale(b *testing.B) {
	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = broker.Close() }()
	subs := make([]*mqtt.Client, 2)
	for i := range subs {
		c, err := mqtt.Dial(broker.Addr(), mqtt.ClientOptions{
			ClientID:  fmt.Sprintf("agent%d", i),
			OnMessage: func(mqtt.Message) {},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		if err := c.Subscribe(mqtt.Subscription{Filter: "davide/#", QoS: 0}); err != nil {
			b.Fatal(err)
		}
		subs[i] = c
	}
	pub, err := mqtt.Dial(broker.Addr(), mqtt.ClientOptions{ClientID: "gw"})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = pub.Close() }()
	batch := gateway.Batch{Node: 1, T0: 0, Dt: 2e-5, Samples: make([]float64, 512)}
	payload, err := batch.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish(gateway.PowerTopic(i%45), payload, 1, false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(512*b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkE7ReactiveCap regenerates the reactive node-capping behaviour:
// convergence steps and steady-state tracking at a 1.5 kW node cap
// (§III-A2).
func BenchmarkE7ReactiveCap(b *testing.B) {
	var te capping.TrackingError
	for i := 0; i < b.N; i++ {
		n, err := node.New(0, node.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		n.SetLoad(1)
		c, err := capping.NewNodeCapper(n)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.SetCap(1500); err != nil {
			b.Fatal(err)
		}
		trace, err := c.Run(60)
		if err != nil {
			b.Fatal(err)
		}
		te, err = capping.Analyze(trace, 1500)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(te.Violations), "steps-above-cap")
	b.ReportMetric(te.OvershootRMSW, "overshoot-RMS-W")
	b.ReportMetric(te.MeanPowerW, "mean-W")
}

// BenchmarkE8ProactiveSched regenerates the scheduling comparison: EASY
// uncapped vs reactive-only vs proactive+reactive at a machine cap
// (§III-A2, refs [15][16]).
func BenchmarkE8ProactiveSched(b *testing.B) {
	jobs := benchJobs(b, 300, 21)
	hist := benchJobs(b, 1500, 777)
	pred := predictor.NewMeanPerKey()
	if err := pred.Train(hist); err != nil {
		b.Fatal(err)
	}
	cap := 45 * 1150.0
	configs := map[string]sched.Config{
		"uncapped":  {Nodes: 45, IdleNodePowerW: 360},
		"reactive":  {Nodes: 45, PowerCapW: cap, ReactiveCapping: true, IdleNodePowerW: 360},
		"proactive": {Nodes: 45, PowerCapW: cap, Estimator: pred.Predict, ReactiveCapping: true, IdleNodePowerW: 360},
	}
	results := map[string]*sched.Result{}
	for i := 0; i < b.N; i++ {
		for name, cfg := range configs {
			strategy := sched.NewEASYStrategy()
			if cfg.Estimator != nil {
				strategy = sched.NewEASYPowerStrategy()
			}
			sim, err := sched.NewSimulator(cfg, strategy, jobs)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				b.Fatal(err)
			}
			results[name] = res
		}
	}
	b.ReportMetric(results["uncapped"].MeanSlowdown, "uncapped-slowdown")
	b.ReportMetric(results["reactive"].MeanSlowdown, "reactive-slowdown")
	b.ReportMetric(results["proactive"].MeanSlowdown, "proactive-slowdown")
	b.ReportMetric(results["proactive"].CapViolationSec, "proactive-violation-s")
}

// BenchmarkE9PowerPrediction regenerates the job power prediction accuracy
// (refs [17][18]): MAPE of the three predictors.
func BenchmarkE9PowerPrediction(b *testing.B) {
	jobs := benchJobs(b, 2500, 42)
	train, test := jobs[:2000], jobs[2000:]
	knn, err := predictor.NewKNN(8)
	if err != nil {
		b.Fatal(err)
	}
	preds := []predictor.Predictor{predictor.NewMeanPerKey(), predictor.NewOLS(), knn}
	evals := make([]predictor.Evaluation, len(preds))
	for i := 0; i < b.N; i++ {
		for j, p := range preds {
			ev, err := predictor.Evaluate(p, train, test)
			if err != nil {
				b.Fatal(err)
			}
			evals[j] = ev
		}
	}
	b.ReportMetric(evals[0].MAPE, "mean-MAPE-%")
	b.ReportMetric(evals[1].MAPE, "ols-MAPE-%")
	b.ReportMetric(evals[2].MAPE, "knn-MAPE-%")
}

// BenchmarkE10EnergyAPI regenerates the §IV TTS-vs-ETS trade-off: an
// instrumented run across P-states and GPU power states.
func BenchmarkE10EnergyAPI(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		run := func(gpus int) float64 {
			n, err := node.New(0, node.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			now := 0.0
			if err := n.RecordPower(now); err != nil {
				b.Fatal(err)
			}
			if err := n.SetGPUsPowered(gpus); err != nil {
				b.Fatal(err)
			}
			n.SetLoad(0.6)
			if err := n.RecordPower(now); err != nil {
				b.Fatal(err)
			}
			now = 100
			if err := n.RecordPower(now); err != nil {
				b.Fatal(err)
			}
			e, err := n.Energy(0, 100)
			if err != nil {
				b.Fatal(err)
			}
			return float64(e)
		}
		eAll := run(4)
		eTrim := run(0)
		saving = 100 * (eAll - eTrim) / eAll
	}
	b.ReportMetric(saving, "GPU-off-saving-%")
}

// BenchmarkE11Apps runs the four real application kernels (§IV) and
// reports their achieved throughput; sub-benchmarks per code.
func BenchmarkE11Apps(b *testing.B) {
	b.Run("QE-FFT3D", func(b *testing.B) {
		f, err := apps.NewFFT3D(32, 0)
		if err != nil {
			b.Fatal(err)
		}
		f.Fill(func(x, y, z int) complex128 { return complex(float64(x+y+z), 0) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Transform(false)
			f.Transform(true)
		}
		b.ReportMetric(2*f.FlopsEstimate()*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
	})
	b.Run("NEMO-stencil", func(b *testing.B) {
		s, err := apps.NewStencil(512, 256, 0, 0.24)
		if err != nil {
			b.Fatal(err)
		}
		s.Fill(func(x, y int) float64 { return float64(x ^ y) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Step(10); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(10*s.BytesPerStep()*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
	})
	b.Run("BQCD-CG", func(b *testing.B) {
		lc, err := apps.NewLatticeCG(8, 0, 1.0, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		rhs := make([]float64, lc.Sites())
		for i := range rhs {
			rhs[i] = float64(i%13) - 6
		}
		x := make([]float64, lc.Sites())
		var res apps.CGResult
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err = lc.Solve(x, rhs, 1e-8, 500)
			if err != nil || !res.Converged {
				b.Fatal(err, res.Converged)
			}
		}
		b.ReportMetric(res.FlopsEst*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
		b.ReportMetric(float64(res.Iterations), "CG-iters")
	})
	b.Run("SPECFEM-SEM", func(b *testing.B) {
		s, err := apps.NewSEM(256, 4, 0, 5e-4, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.SetInitialGaussian(4); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Step(100); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(100*s.FlopsPerStep()*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
	})
}

// BenchmarkE12ThrottleUniformity regenerates §II-G: air cooling degrades
// unevenly, liquid cooling does not.
func BenchmarkE12ThrottleUniformity(b *testing.B) {
	var liquidImb, airImb float64
	for i := 0; i < b.N; i++ {
		liquid, err := cluster.New(cluster.PilotConfig())
		if err != nil {
			b.Fatal(err)
		}
		repL, err := liquid.ThrottleStudy(600)
		if err != nil {
			b.Fatal(err)
		}
		airCfg := cluster.PilotConfig()
		airCfg.NodeConfig.Cooling = node.Air
		airCfg.NodeConfig.CoolantTemp = 30
		airCfg.NodeConfig.AirSpreadSeed = 11
		air, err := cluster.New(airCfg)
		if err != nil {
			b.Fatal(err)
		}
		repA, err := air.ThrottleStudy(900)
		if err != nil {
			b.Fatal(err)
		}
		liquidImb, airImb = repL.ImbalancePct, repA.ImbalancePct
	}
	b.ReportMetric(liquidImb, "liquid-imbalance-%")
	b.ReportMetric(airImb, "air-imbalance-%")
}

// BenchmarkE13OOBOverhead measures — with real computation — the slowdown
// an in-band sampler goroutine inflicts on an application kernel, vs the
// EG's out-of-band zero (§III-A1, §V-C).
func BenchmarkE13OOBOverhead(b *testing.B) {
	run := func(inBand bool) float64 {
		s, err := apps.NewStencil(256, 256, 0, 0.24)
		if err != nil {
			b.Fatal(err)
		}
		s.Fill(func(x, y int) float64 { return float64(x + y) })
		stop := make(chan struct{})
		if inBand {
			// A polling sampler burning one OS thread, as an in-band
			// monitoring daemon does.
			go func() {
				x := 0.0
				for {
					select {
					case <-stop:
						return
					default:
						for k := 0; k < 10000; k++ {
							x += float64(k)
						}
						_ = x
					}
				}
			}()
		}
		start := nowSeconds()
		if err := s.Step(60); err != nil {
			b.Fatal(err)
		}
		el := nowSeconds() - start
		close(stop)
		return el
	}
	var slowdown float64
	for i := 0; i < b.N; i++ {
		base := run(false)
		busy := run(true)
		slowdown = 100 * (busy - base) / base
	}
	b.ReportMetric(slowdown, "in-band-slowdown-%")
	m := gateway.DefaultOverheadModel()
	model, err := m.InBandSlowdown(50e3, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*model, "model-slowdown-%")
}

// BenchmarkE14Accounting regenerates the per-job energy accounting check:
// ETS from the live MQTT telemetry path vs the ledger's analytic value.
func BenchmarkE14Accounting(b *testing.B) {
	train := benchJobs(b, 500, 555)
	jobs := benchJobs(b, 25, 4)
	var errPct float64
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(train)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RunScheduled(jobs, sched.Config{}, sched.NewEASYStrategy()); err != nil {
			b.Fatal(err)
		}
		// Shortest job for a fast replay.
		best, bestDur := -1, 1e18
		for _, j := range jobs {
			rec, err := sys.Ledger.Job(j.ID)
			if err != nil {
				b.Fatal(err)
			}
			if d := rec.Duration(); d < bestDur {
				best, bestDur = j.ID, d
			}
		}
		tele, ledger, err := sys.JobEnergyFromTelemetry(best, 20)
		if err != nil {
			b.Fatal(err)
		}
		errPct = 100 * abs(tele-ledger) / ledger
	}
	b.ReportMetric(errPct, "ETS-err-%")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
