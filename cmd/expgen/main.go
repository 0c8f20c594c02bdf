// Command expgen regenerates every experiment in DESIGN.md §4 (E1-E14)
// and prints the result tables as markdown — the rows recorded in
// EXPERIMENTS.md. Each experiment is deterministic given its seed.
//
// Usage:
//
//	expgen [-only E4] [-csv]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"davide/internal/apps"
	"davide/internal/capping"
	"davide/internal/cluster"
	"davide/internal/core"
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
	"davide/internal/trace"
	"davide/internal/units"
	"davide/internal/workload"
)

type experiment struct {
	id string
	fn func() (*trace.Table, error)
}

var exps = []experiment{
	{"E1", e1}, {"E2", e2}, {"E3", e3}, {"E4", e4}, {"E5", e5},
	{"E6", e6}, {"E7", e7}, {"E8", e8}, {"E9", e9}, {"E10", e10},
	{"E11", e11}, {"E12", e12}, {"E13", e13}, {"E14", e14},
	{"E15", e15},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("expgen: ")
	only := flag.String("only", "", "run a single experiment (e.g. E4)")
	asCSV := flag.Bool("csv", false, "emit CSV instead of markdown")
	flag.Parse()
	for _, e := range exps {
		if *only != "" && !strings.EqualFold(*only, e.id) {
			continue
		}
		tab, err := e.fn()
		if err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		if *asCSV {
			fmt.Printf("# %s\n", tab.Title)
			if err := tab.WriteCSV(os.Stdout); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
			continue
		}
		if err := tab.WriteMarkdown(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// e1 — system efficiency vs the Green500 context of the paper's intro.
func e1() (*trace.Table, error) {
	c, err := cluster.New(cluster.PilotConfig())
	if err != nil {
		return nil, err
	}
	res, err := c.RunLinpack(0.75)
	if err != nil {
		return nil, err
	}
	tab, err := trace.NewTable("E1 — System efficiency (paper §I, §II-I: 1 PFlops, <100 kW, Green500 context)",
		"system", "peak", "power", "GFlops/W")
	if err != nil {
		return nil, err
	}
	rows := [][4]string{
		{"Tianhe-2 (paper)", "33.8 PF", "17.8 MW", "2.0"},
		{"TaihuLight (paper)", "93 PF", "15.4 MW", "6.0"},
		{"Piz Daint (paper)", "—", "—", "7.5"},
		{"DGX SaturnV (paper)", "—", "—", "9.5"},
	}
	for _, r := range rows {
		if err := tab.AddRow(r[0], r[1], r[2], r[3]); err != nil {
			return nil, err
		}
	}
	err = tab.AddRow("D.A.V.I.D.E. (this repro, HPL eff 0.75)",
		fmt.Sprintf("%.2f PF peak / %.2f PF sustained", res.PeakFlops.TFlops()/1000, res.SustainedFlops.TFlops()/1000),
		fmt.Sprintf("%.1f kW facility (%.1f kW IT)", res.FacilityPowerW.KW(), res.ITPowerW.KW()),
		fmt.Sprintf("%.1f", res.GFlopsPerWatt))
	return tab, err
}

// e2 — cooling split and overhead across inlet temperatures.
func e2() (*trace.Table, error) {
	tab, err := trace.NewTable("E2 — Liquid/air heat split (paper §II-C/G/I: 75-80% to liquid, 30 L/min, inlet up to 45°C)",
		"inlet °C", "liquid heat %", "air heat kW", "outlet °C", "cooling overhead %")
	if err != nil {
		return nil, err
	}
	for _, inlet := range []units.Celsius{25, 30, 35, 40, 44} {
		loop, err := thermal.NewLoop(inlet, 30, 0.78, 18)
		if err != nil {
			return nil, err
		}
		fans := []*thermal.Fan{thermal.OpenRackFan(), thermal.OpenRackFan(), thermal.OpenRackFan(), thermal.OpenRackFan()}
		eff, err := thermal.EvaluateLoop(loop, 32000, fans, 2500, 150)
		if err != nil {
			return nil, err
		}
		if err := tab.AddRow(
			fmt.Sprintf("%.0f", float64(inlet)),
			fmt.Sprintf("%.1f", 100*float64(eff.LiquidHeat)/float64(eff.ITPower)),
			fmt.Sprintf("%.1f", eff.AirHeat.KW()),
			fmt.Sprintf("%.1f", float64(eff.OutletTemp)),
			fmt.Sprintf("%.2f", 100*eff.CoolingOver)); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

// e3 — PSU consolidation.
func e3() (*trace.Table, error) {
	tab, err := trace.NewTable("E3 — OpenRack PSU consolidation (paper §II-F: up to 5% saving, fewer PSUs, cleaner signal)",
		"per-node load W", "node-level AC kW", "rack-bank AC kW", "saving %", "PSUs 30→", "noise 2%→")
	if err != nil {
		return nil, err
	}
	for _, load := range []units.Watt{800, 1200, 1600, 2000} {
		cmp, err := rack.Compare(15, load, 32000)
		if err != nil {
			return nil, err
		}
		if err := tab.AddRow(
			fmt.Sprintf("%.0f", float64(load)),
			fmt.Sprintf("%.2f", cmp.NodeLevelAC.KW()),
			fmt.Sprintf("%.2f", cmp.RackLevelAC.KW()),
			fmt.Sprintf("%.2f", cmp.SavingPct),
			fmt.Sprintf("%d", cmp.RackPSUCount),
			fmt.Sprintf("%.1f%%", cmp.RackNoisePct)); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

// e4 — monitoring-infrastructure comparison.
func e4() (*trace.Table, error) {
	tab, err := trace.NewTable("E4 — Monitoring error on bursty power (paper §III-A1, §V-C: EG 800kS/s→50kS/s beats IPMI/ArduPower/HDEEM)",
		"monitor", "output rate S/s", "samples/1s", "energy error % (mean of 10 runs)")
	if err != nil {
		return nil, err
	}
	sig := sensor.Sum{
		sensor.Const(400),
		sensor.Square{Low: 0, High: 1600, Period: 0.02, Duty: 0.2, Phase: 0.0013},
	}
	avg := map[monitors.Class]float64{}
	samples := map[monitors.Class]int{}
	const runs = 10
	for s := int64(0); s < runs; s++ {
		results, err := monitors.CompareAll(sig, 0, 1.0, 3000, 1000+s*7)
		if err != nil {
			return nil, err
		}
		for _, r := range results {
			avg[r.Class] += r.RelErrorPct / runs
			samples[r.Class] = r.Samples
		}
	}
	for _, c := range []monitors.Class{monitors.IPMI, monitors.ArduPower, monitors.PowerInsight, monitors.HDEEM, monitors.EnergyGateway} {
		spec, err := monitors.BuiltinSpec(c, 3000)
		if err != nil {
			return nil, err
		}
		if err := tab.AddRow(c.String(),
			fmt.Sprintf("%.0f", spec.OutputRate),
			fmt.Sprintf("%d", samples[c]),
			fmt.Sprintf("%.3f", avg[c])); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

// e5 — PTP sync quality vs interval and timestamping.
func e5() (*trace.Table, error) {
	tab, err := trace.NewTable("E5 — PTP synchronisation (paper §III-A1: synchronous timestamps across nodes; ref [13])",
		"timestamping", "sync interval s", "steady-state RMS offset µs")
	if err != nil {
		return nil, err
	}
	run := func(jitter, interval float64, seed int64) (float64, error) {
		master, err := ptp.NewClock(0, 0, 0, 1)
		if err != nil {
			return 0, err
		}
		slave, err := ptp.NewClock(8e-3, 20e-6, 1e-7, seed)
		if err != nil {
			return 0, err
		}
		path, err := ptp.NewPath(1e-6, 0, jitter, seed+7)
		if err != nil {
			return 0, err
		}
		sess := &ptp.Session{Master: master, Slave: slave, Path: path, Servo: ptp.DefaultServo(), ReqGap: 100e-6}
		res, err := sess.Run(0, interval, 120)
		if err != nil {
			return 0, err
		}
		return ptp.RMS(res, 40) * 1e6, nil
	}
	for _, c := range []struct {
		name   string
		jitter float64
	}{{"hardware (50 ns)", 50e-9}, {"software (100 µs)", 100e-6}} {
		for _, interval := range []float64{0.5, 1, 4} {
			rms, err := run(c.jitter, interval, 2)
			if err != nil {
				return nil, err
			}
			if err := tab.AddRow(c.name, fmt.Sprintf("%.1f", interval), fmt.Sprintf("%.2f", rms)); err != nil {
				return nil, err
			}
		}
	}
	return tab, nil
}

// e6 — telemetry scalability over the real broker.
func e6() (*trace.Table, error) {
	tab, err := trace.NewTable("E6 — MQTT telemetry scalability (paper §III-A1: scalable sharing to multiple agents)",
		"publishers", "subscriber agents", "batches", "wall ms", "delivered samples/s")
	if err != nil {
		return nil, err
	}
	for _, cfg := range []struct{ pubs, subs, batches int }{
		{5, 1, 200}, {15, 2, 200}, {45, 2, 200}, {45, 4, 200},
	} {
		broker, err := mqtt.NewBroker("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		recv := make(chan struct{}, 1<<20)
		for i := 0; i < cfg.subs; i++ {
			c, err := mqtt.Dial(broker.Addr(), mqtt.ClientOptions{
				ClientID:  fmt.Sprintf("agent%d", i),
				OnMessage: func(mqtt.Message) { recv <- struct{}{} },
			})
			if err != nil {
				return nil, err
			}
			defer func() { _ = c.Close() }()
			if err := c.Subscribe(mqtt.Subscription{Filter: "davide/#", QoS: 0}); err != nil {
				return nil, err
			}
		}
		batch := gateway.Batch{Node: 1, T0: 0, Dt: 2e-5, Samples: make([]float64, 512)}
		payload, err := batch.AppendEncode(nil, gateway.CodecBinary)
		if err != nil {
			return nil, err
		}
		pubs := make([]*mqtt.Client, cfg.pubs)
		for i := range pubs {
			c, err := mqtt.Dial(broker.Addr(), mqtt.ClientOptions{ClientID: fmt.Sprintf("gw%02d", i)})
			if err != nil {
				return nil, err
			}
			defer func() { _ = c.Close() }()
			pubs[i] = c
		}
		start := time.Now()
		for k := 0; k < cfg.batches; k++ {
			p := pubs[k%len(pubs)]
			if err := p.Publish(gateway.PowerTopic(k%45), payload, 1, false); err != nil {
				return nil, err
			}
		}
		want := cfg.batches * cfg.subs
		for got := 0; got < want; {
			select {
			case <-recv:
				got++
			case <-time.After(10 * time.Second):
				return nil, fmt.Errorf("e6: timeout at %d/%d", got, want)
			}
		}
		el := time.Since(start)
		if err := tab.AddRow(
			fmt.Sprintf("%d", cfg.pubs),
			fmt.Sprintf("%d", cfg.subs),
			fmt.Sprintf("%d", cfg.batches),
			fmt.Sprintf("%.1f", float64(el.Microseconds())/1000),
			fmt.Sprintf("%.0f", float64(512*want)/el.Seconds())); err != nil {
			return nil, err
		}
		_ = broker.Close()
	}
	return tab, nil
}

// e7 — reactive node capping sweep.
func e7() (*trace.Table, error) {
	tab, err := trace.NewTable("E7 — Reactive node power capping (paper §III-A2: local feedback tracks the set point, costs performance)",
		"cap W", "final power W", "peak TFlops after", "steps above cap", "overshoot RMS W")
	if err != nil {
		return nil, err
	}
	for _, cap := range []units.Watt{1800, 1500, 1200, 900} {
		n, err := node.New(0, node.DefaultConfig())
		if err != nil {
			return nil, err
		}
		n.SetLoad(1)
		c, err := capping.NewNodeCapper(n)
		if err != nil {
			return nil, err
		}
		if err := c.SetCap(cap); err != nil {
			return nil, err
		}
		tr, err := c.Run(120)
		if err != nil {
			return nil, err
		}
		te, err := capping.Analyze(tr, cap)
		if err != nil {
			return nil, err
		}
		if err := tab.AddRow(
			fmt.Sprintf("%.0f", float64(cap)),
			fmt.Sprintf("%.0f", float64(n.Power())),
			fmt.Sprintf("%.2f", n.PeakFlops().TFlops()),
			fmt.Sprintf("%d", te.Violations),
			fmt.Sprintf("%.1f", te.OvershootRMSW)); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

// e8 — scheduling policy comparison under a machine cap.
func e8() (*trace.Table, error) {
	tab, err := trace.NewTable("E8 — Power-aware scheduling (paper §III-A2: proactive prediction + reactive capping keeps envelope and QoS)",
		"policy", "mean slowdown", "p95 slowdown", "mean wait min", "util %", "cap violation s")
	if err != nil {
		return nil, err
	}
	g, err := workload.NewGenerator(workload.DefaultGeneratorConfig(21))
	if err != nil {
		return nil, err
	}
	jobs, err := g.Batch(300)
	if err != nil {
		return nil, err
	}
	hist, err := workload.NewGenerator(workload.DefaultGeneratorConfig(777))
	if err != nil {
		return nil, err
	}
	train, err := hist.Batch(1500)
	if err != nil {
		return nil, err
	}
	pred := predictor.NewMeanPerKey()
	if err := pred.Train(train); err != nil {
		return nil, err
	}
	oracle := func(j workload.Job) (float64, error) { return j.TruePowerPerNode, nil }
	cap := 45 * 1150.0
	// Pinned row for row by internal/sched's TestE8Golden.
	fifo, easy, easyPower := sched.NewFIFOStrategy(), sched.NewEASYStrategy(), sched.NewEASYPowerStrategy()
	configs := []struct {
		name     string
		strategy sched.Strategy
		cfg      sched.Config
	}{
		{"FCFS uncapped", fifo, sched.Config{Nodes: 45, IdleNodePowerW: 360}},
		{"EASY uncapped", easy, sched.Config{Nodes: 45, IdleNodePowerW: 360}},
		{"EASY cap-ignored", easy, sched.Config{Nodes: 45, PowerCapW: cap, IdleNodePowerW: 360}},
		{"EASY reactive-only", easy, sched.Config{Nodes: 45, PowerCapW: cap, ReactiveCapping: true, IdleNodePowerW: 360}},
		{"EASY proactive (predictor)", easyPower, sched.Config{Nodes: 45, PowerCapW: cap, Estimator: pred.Predict, IdleNodePowerW: 360}},
		{"EASY proactive+reactive", easyPower, sched.Config{Nodes: 45, PowerCapW: cap, Estimator: pred.Predict, ReactiveCapping: true, IdleNodePowerW: 360}},
		{"EASY proactive (oracle)", easyPower, sched.Config{Nodes: 45, PowerCapW: cap, Estimator: oracle, IdleNodePowerW: 360}},
	}
	for _, c := range configs {
		sim, err := sched.NewSimulator(c.cfg, c.strategy, jobs)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run()
		if err != nil {
			return nil, err
		}
		if err := tab.AddRow(c.name,
			fmt.Sprintf("%.2f", res.MeanSlowdown),
			fmt.Sprintf("%.2f", res.P95Slowdown),
			fmt.Sprintf("%.1f", res.MeanWait/60),
			fmt.Sprintf("%.1f", res.UtilizationPct),
			fmt.Sprintf("%.1f", res.CapViolationSec)); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

// e9 — predictor accuracy vs training size.
func e9() (*trace.Table, error) {
	tab, err := trace.NewTable("E9 — Job power prediction (paper §III-A2, refs [17][18]: power predictable at submission)",
		"predictor", "train jobs", "MAPE %", "MAE W", "RMSE W")
	if err != nil {
		return nil, err
	}
	g, err := workload.NewGenerator(workload.DefaultGeneratorConfig(42))
	if err != nil {
		return nil, err
	}
	all, err := g.Batch(3000)
	if err != nil {
		return nil, err
	}
	test := all[2500:]
	knnFactory := func() (predictor.Predictor, error) { return predictor.NewKNN(8) }
	for _, size := range []int{100, 500, 2500} {
		train := all[:size]
		preds := []predictor.Predictor{predictor.NewMeanPerKey(), predictor.NewOLS()}
		if k, err := knnFactory(); err == nil {
			preds = append(preds, k)
		}
		for _, p := range preds {
			ev, err := predictor.Evaluate(p, train, test)
			if err != nil {
				return nil, err
			}
			if err := tab.AddRow(ev.Name,
				fmt.Sprintf("%d", size),
				fmt.Sprintf("%.2f", ev.MAPE),
				fmt.Sprintf("%.1f", ev.MAE),
				fmt.Sprintf("%.1f", ev.RMSE)); err != nil {
				return nil, err
			}
		}
	}
	return tab, nil
}

// e10 — TTS vs ETS trade-off across P-states and GPU states.
func e10() (*trace.Table, error) {
	tab, err := trace.NewTable("E10 — Energy API trade-offs (paper §IV: developers compare time- vs energy-to-solution)",
		"workload", "configuration", "time s", "energy kJ", "mean W", "on Pareto front")
	if err != nil {
		return nil, err
	}
	type cfg struct {
		workload string
		label    string
		pstate   int
		gpus     int
	}
	cfgs := []cfg{
		{"GPU-bound (QE)", "P6 (3.5 GHz), 4 GPUs", 6, 4},
		{"GPU-bound (QE)", "P3 (2.75 GHz), 4 GPUs", 3, 4},
		{"GPU-bound (QE)", "P0 (2.0 GHz), 4 GPUs", 0, 4},
		{"CPU-bound (NEMO)", "P6, 4 GPUs idle", 6, 4},
		{"CPU-bound (NEMO)", "P6, GPUs released", 6, 0},
	}
	var points []struct {
		workload, label string
		t, e            float64
	}
	for _, c := range cfgs {
		n, err := node.New(0, node.DefaultConfig())
		if err != nil {
			return nil, err
		}
		if err := n.RecordPower(0); err != nil {
			return nil, err
		}
		if err := n.SetPState(c.pstate); err != nil {
			return nil, err
		}
		if err := n.SetGPUsPowered(c.gpus); err != nil {
			return nil, err
		}
		n.SetLoad(0.8)
		if strings.HasPrefix(c.workload, "CPU") {
			// CPU-bound code leaves the accelerators unused.
			for _, g := range n.GPUs {
				g.SetUtilization(0)
			}
		}
		if err := n.RecordPower(0); err != nil {
			return nil, err
		}
		// Work stretches inversely with CPU frequency for the CPU share.
		fTop, err := n.Sockets[0].Frequency(n.PStateCount() - 1)
		if err != nil {
			return nil, err
		}
		fCur, err := n.Sockets[0].Frequency(c.pstate)
		if err != nil {
			return nil, err
		}
		t := 100 * float64(fTop) / float64(fCur)
		if err := n.RecordPower(t); err != nil {
			return nil, err
		}
		e, err := n.Energy(0, t)
		if err != nil {
			return nil, err
		}
		points = append(points, struct {
			workload, label string
			t, e            float64
		}{c.workload, c.label, t, float64(e)})
	}
	// Pareto dominance is only meaningful within one workload class.
	for _, p := range points {
		dominated := false
		for _, q := range points {
			if q.workload != p.workload {
				continue
			}
			if q.t <= p.t && q.e <= p.e && (q.t < p.t || q.e < p.e) {
				dominated = true
				break
			}
		}
		onFront := "yes"
		if dominated {
			onFront = "no"
		}
		if err := tab.AddRow(p.workload, p.label,
			fmt.Sprintf("%.1f", p.t),
			fmt.Sprintf("%.1f", p.e/1000),
			fmt.Sprintf("%.0f", p.e/p.t),
			onFront); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

// e11 — application kernel behaviours.
func e11() (*trace.Table, error) {
	tab, err := trace.NewTable("E11 — Application kernels (paper §IV-A..D: QE FFT-bound, NEMO memory-bound, SPECFEM3D overlap, BQCD CG + even/odd)",
		"kernel", "figure of merit", "value")
	if err != nil {
		return nil, err
	}
	// QE: 3-D FFT round trip throughput.
	f, err := apps.NewFFT3D(32, 0)
	if err != nil {
		return nil, err
	}
	f.Fill(func(x, y, z int) complex128 { return complex(float64(x+y+z), 0) })
	start := time.Now()
	const fftReps = 10
	for i := 0; i < fftReps; i++ {
		f.Transform(false)
		f.Transform(true)
	}
	el := time.Since(start).Seconds()
	if err := tab.AddRow("QuantumESPRESSO 3-D FFT 32³", "GFlops",
		fmt.Sprintf("%.2f", 2*fftReps*f.FlopsEstimate()/el/1e9)); err != nil {
		return nil, err
	}
	// NEMO: stencil bandwidth + arithmetic intensity.
	s, err := apps.NewStencil(512, 256, 0, 0.24)
	if err != nil {
		return nil, err
	}
	s.Fill(func(x, y int) float64 { return float64(x ^ y) })
	start = time.Now()
	if err := s.Step(100); err != nil {
		return nil, err
	}
	el = time.Since(start).Seconds()
	if err := tab.AddRow("NEMO 512x256 stencil", "GB/s (intensity flop/byte)",
		fmt.Sprintf("%.2f (%.3f)", 100*s.BytesPerStep()/el/1e9, s.FlopsPerStep()/s.BytesPerStep())); err != nil {
		return nil, err
	}
	// BQCD: CG vs even/odd preconditioned CG iterations.
	lc, err := apps.NewLatticeCG(8, 0, 1.0, 0.9)
	if err != nil {
		return nil, err
	}
	rhs := make([]float64, lc.Sites())
	for i := range rhs {
		rhs[i] = float64(i%13) - 6
	}
	x := make([]float64, lc.Sites())
	plain, err := lc.Solve(x, rhs, 1e-10, 1000)
	if err != nil {
		return nil, err
	}
	xeo := make([]float64, lc.Sites())
	eo, err := lc.EvenOddSolve(xeo, rhs, 1e-10, 1000)
	if err != nil {
		return nil, err
	}
	if err := tab.AddRow("BQCD 8⁴ lattice CG", "iterations plain → even/odd",
		fmt.Sprintf("%d → %d", plain.Iterations, eo.Iterations)); err != nil {
		return nil, err
	}
	// SPECFEM3D: SEM energy conservation over a long run.
	sem, err := apps.NewSEM(128, 4, 0, 5e-4, 1)
	if err != nil {
		return nil, err
	}
	if err := sem.SetInitialGaussian(4); err != nil {
		return nil, err
	}
	if err := sem.Step(1); err != nil {
		return nil, err
	}
	e0 := sem.Energy()
	if err := sem.Step(20000); err != nil {
		return nil, err
	}
	drift := 100 * (sem.Energy() - e0) / e0
	if err := tab.AddRow("SPECFEM3D-style SEM 128 elems", "energy drift % over 20k steps",
		fmt.Sprintf("%.4f", drift)); err != nil {
		return nil, err
	}
	return tab, nil
}

// e12 — throttle uniformity.
func e12() (*trace.Table, error) {
	tab, err := trace.NewTable("E12 — Cooling vs throttling (paper §II-G: air throttles unevenly; liquid gives uniform capacity)",
		"cooling", "inlet °C", "devices throttled", "node throughput min/max TFlops", "imbalance %")
	if err != nil {
		return nil, err
	}
	liquid, err := cluster.New(cluster.PilotConfig())
	if err != nil {
		return nil, err
	}
	repL, err := liquid.ThrottleStudy(600)
	if err != nil {
		return nil, err
	}
	if err := tab.AddRow("liquid", "35",
		fmt.Sprintf("%d/%d", repL.DevicesThrottled, repL.TotalDevices),
		fmt.Sprintf("%.2f / %.2f", repL.MinNodeFlops.TFlops(), repL.MaxNodeFlops.TFlops()),
		fmt.Sprintf("%.2f", repL.ImbalancePct)); err != nil {
		return nil, err
	}
	airCfg := cluster.PilotConfig()
	airCfg.NodeConfig.Cooling = node.Air
	airCfg.NodeConfig.CoolantTemp = 30
	airCfg.NodeConfig.AirSpreadSeed = 11
	air, err := cluster.New(airCfg)
	if err != nil {
		return nil, err
	}
	repA, err := air.ThrottleStudy(900)
	if err != nil {
		return nil, err
	}
	err = tab.AddRow("air", "30",
		fmt.Sprintf("%d/%d", repA.DevicesThrottled, repA.TotalDevices),
		fmt.Sprintf("%.2f / %.2f", repA.MinNodeFlops.TFlops(), repA.MaxNodeFlops.TFlops()),
		fmt.Sprintf("%.2f", repA.ImbalancePct))
	return tab, err
}

// e13 — in-band vs out-of-band monitoring overhead.
func e13() (*trace.Table, error) {
	tab, err := trace.NewTable("E13 — Monitoring overhead (paper §III-A1: EG is external to compute resources)",
		"monitoring", "rate S/s", "modelled node slowdown %")
	if err != nil {
		return nil, err
	}
	m := gateway.DefaultOverheadModel()
	for _, rate := range []float64{1, 1000, 8000, 50000} {
		s, err := m.InBandSlowdown(rate, 16)
		if err != nil {
			return nil, err
		}
		if err := tab.AddRow("in-band daemon", fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.4f", 100*s)); err != nil {
			return nil, err
		}
	}
	err = tab.AddRow("out-of-band EG (BBB)", "50000", fmt.Sprintf("%.4f", 100*m.OutOfBandSlowdown()))
	return tab, err
}

// e14 — per-job accounting via the live telemetry path.
func e14() (*trace.Table, error) {
	tab, err := trace.NewTable("E14 — Per-job energy accounting (paper §III-A1: EA from synchronised traces)",
		"job", "nodes", "duration s", "ledger kJ", "telemetry kJ", "error %")
	if err != nil {
		return nil, err
	}
	gh, err := workload.NewGenerator(workload.DefaultGeneratorConfig(555))
	if err != nil {
		return nil, err
	}
	train, err := gh.Batch(500)
	if err != nil {
		return nil, err
	}
	gw, err := workload.NewGenerator(workload.DefaultGeneratorConfig(4))
	if err != nil {
		return nil, err
	}
	jobs, err := gw.Batch(25)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(train)
	if err != nil {
		return nil, err
	}
	if _, err := sys.RunScheduled(jobs, sched.Config{}, sched.NewEASYStrategy()); err != nil {
		return nil, err
	}
	// Replay the three shortest jobs through the live MQTT path.
	type jd struct {
		id  int
		dur float64
	}
	var all []jd
	for _, j := range jobs {
		rec, err := sys.Ledger.Job(j.ID)
		if err != nil {
			return nil, err
		}
		all = append(all, jd{j.ID, rec.Duration()})
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].dur < all[i].dur {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	for _, cand := range all[:3] {
		tele, ledger, err := sys.JobEnergyFromTelemetry(cand.id, 20)
		if err != nil {
			return nil, err
		}
		rec, err := sys.Ledger.Job(cand.id)
		if err != nil {
			return nil, err
		}
		if err := tab.AddRow(
			fmt.Sprintf("%d", cand.id),
			fmt.Sprintf("%d", rec.Nodes),
			fmt.Sprintf("%.0f", rec.Duration()),
			fmt.Sprintf("%.1f", ledger/1000),
			fmt.Sprintf("%.1f", tele/1000),
			fmt.Sprintf("%.3f", 100*absF(tele-ledger)/ledger)); err != nil {
			return nil, err
		}
	}
	return tab, nil
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// e15 — scale-out study: the paper's conclusion positions D.A.V.I.D.E. as
// "the building block for the forthcoming exascale supercomputer based on
// a class of system where Energy Aware management is mandatory". This
// extension scales the pilot's building blocks by 1x/4x/10x and checks
// that the network, the telemetry-rate budget and the power-aware
// scheduler all keep working.
func e15() (*trace.Table, error) {
	tab, err := trace.NewTable("E15 — Scale-out extension (paper §VI: the pilot as an exascale building block)",
		"nodes", "peak PF", "fat-tree levels", "bisection TB/s", "telemetry MS/s", "sched 1k jobs ms", "cap violation s")
	if err != nil {
		return nil, err
	}
	for _, scale := range []struct {
		racks int
	}{{3}, {12}, {30}} {
		nodes := scale.racks * 15
		cfg := cluster.PilotConfig()
		cfg.ComputeRacks = scale.racks
		c, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		c.SetLoad(1)
		// Telemetry budget: every node streams 50 kS/s.
		telemetryMSs := float64(nodes) * 50e3 / 1e6
		// Scheduling: 1000 jobs through the proactive+reactive stack,
		// with job sizes and arrival rate scaled to the machine.
		genCfg := workload.DefaultGeneratorConfig(31)
		genCfg.MaxNodes = nodes / 6
		genCfg.MeanInterarrival = 180.0 * 45 / float64(nodes)
		gen, err := workload.NewGenerator(genCfg)
		if err != nil {
			return nil, err
		}
		jobs, err := gen.Batch(1000)
		if err != nil {
			return nil, err
		}
		hist, err := workload.NewGenerator(workload.DefaultGeneratorConfig(777))
		if err != nil {
			return nil, err
		}
		train, err := hist.Batch(1500)
		if err != nil {
			return nil, err
		}
		pred := predictor.NewMeanPerKey()
		if err := pred.Train(train); err != nil {
			return nil, err
		}
		start := time.Now()
		sim, err := sched.NewSimulator(sched.Config{
			Nodes:     nodes,
			PowerCapW: float64(nodes) * 1150, Estimator: pred.Predict,
			ReactiveCapping: true, IdleNodePowerW: 360,
		}, sched.NewEASYPowerStrategy(), jobs)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run()
		if err != nil {
			return nil, err
		}
		schedMs := float64(time.Since(start).Microseconds()) / 1000
		if err := tab.AddRow(
			fmt.Sprintf("%d", nodes),
			fmt.Sprintf("%.2f", c.PeakFlops().TFlops()/1000),
			fmt.Sprintf("%d", c.Fabric.Levels()),
			fmt.Sprintf("%.2f", float64(c.Fabric.BisectionBandwidth())/1e12),
			fmt.Sprintf("%.2f", telemetryMSs),
			fmt.Sprintf("%.1f", schedMs),
			fmt.Sprintf("%.1f", res.CapViolationSec)); err != nil {
			return nil, err
		}
	}
	return tab, nil
}
