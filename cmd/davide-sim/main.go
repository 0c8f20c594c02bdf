// Command davide-sim runs the full D.A.V.I.D.E. pilot simulation: it
// generates a synthetic workload, trains the job power predictor, runs the
// power-aware scheduler against the 45-node pilot under a configurable
// machine power cap, and prints scheduling QoS, power tracking and energy
// accounting summaries.
//
// -policy names the batch simulator's dispatch strategy and -sched the
// live control plane's, both by their sched registry name (the list is in
// -h); a power-aware strategy admits on the trained predictor under -cap.
//
// With -sched the batch simulator is replaced by the live control plane:
// a tick-driven closed loop in which per-node gateways stream the
// cluster's power over real MQTT into the compressed store, and
// admission, reactive capping, per-rack cap enforcement and online
// predictor retraining all work from those measurements (combine with
// -chaos to watch the scheduler hold the cap on degraded telemetry).
//
// With -racks N the telemetry plane — a -stream replay's or the live
// control loop's — runs on the tiered fabric: the fleet is partitioned
// over N per-rack brokers, each bridged into a spine broker (on a replay,
// combine with -chaos bridge-flap to fault the uplinks while the rack
// tier stays exact). Results are bit-identical for any N.
//
// With -tournament the command runs the scheduler strategy tournament
// instead: every registered admission policy across clean transport,
// every gateway chaos preset and every named scenario at a fixed seed,
// scored and ranked. -tournament-out writes the machine-readable
// report; -ledger regenerates STRATEGY_LEDGER.md from it, preserving
// the ledger's curated findings section; -tournament-from renders the
// ledger from an existing report without re-running.
//
// Usage:
//
//	davide-sim [-jobs N] [-cap kW] [-policy easy-power|easy|fifo|...] [-reactive] [-seed S]
//	davide-sim -sched power|fifo|... [-tick S] [-jobs N] [-cap kW] [-chaos preset] [-racks N]
//	davide-sim -stream 600 -racks 8 [-chaos bridge-flap] [-cpuprofile cpu.out]
//	davide-sim -tournament [-policies fifo,power] [-axes clean] [-tournament-out tournament.json] [-ledger STRATEGY_LEDGER.md]
//	davide-sim -tournament -tournament-from tournament.json -ledger STRATEGY_LEDGER.md
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"davide/internal/chaos"
	"davide/internal/core"
	"davide/internal/energyserve"
	"davide/internal/fleet"
	"davide/internal/gateway"
	"davide/internal/obs"
	"davide/internal/scenario"
	"davide/internal/sched"
	"davide/internal/tournament"
	"davide/internal/units"
	"davide/internal/workload"
)

const (
	// replayRate is a -stream replay's sample rate in S/s of virtual
	// time: a stress figure (a live loop samples at core.RunLive's
	// gateway-like 4 S/s).
	replayRate = 50.0
	// chaosBatchSamples is the MQTT batch size under -chaos: small
	// batches give per-packet faults statistics.
	chaosBatchSamples = 64
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("davide-sim: ")

	jobs := flag.Int("jobs", 300, "number of jobs to schedule")
	capKW := flag.Float64("cap", 52, "machine power cap in kW (0 disables)")
	policy := flag.String("policy", "easy-power", "batch dispatch strategy: "+strings.Join(sched.StrategyNames(), ", ")+
		" (the power-aware ones admit on the trained predictor and need -cap > 0)")
	reactive := flag.Bool("reactive", true, "enable reactive node capping")
	seed := flag.Int64("seed", 1, "workload seed")
	stream := flag.Float64("stream", 0, "replay this many virtual seconds of telemetry over real MQTT (0 disables)")
	streamNodes := flag.Int("stream-nodes", 0, "limit the telemetry replay to the first k nodes (0 = all)")
	chaosName := flag.String("chaos", "", "fault-injection preset for the telemetry replay: "+
		strings.Join(fleet.ChaosPresetNames(), ", ")+" (requires -stream or -sched; seeded by -seed); "+
		"bridge presets ("+strings.Join(fleet.ChaosBridgePresetNames(), ", ")+") fault the rack→spine uplinks and require -racks > 1; "+
		"a comma-separated list stacks gateway presets into one composed plan")
	racks := flag.Int("racks", 1, "rack broker cells of the telemetry plane, replay or live (1 = one broker, >1 = tiered fabric with spine bridges)")
	schedMode := flag.String("sched", "", "run the live closed-loop control plane under this dispatch strategy "+
		"(a -policy name) instead of the batch simulator")
	scenarioName := flag.String("scenario", "", "run a named scenario on the live control plane: "+
		strings.Join(scenario.Names(), ", ")+" (arrival shaping, cap trajectories, thermal events and composed chaos; "+
		"seeded by -seed; strategy from -sched, default power)")
	tick := flag.Float64("tick", 30, "live control period in virtual seconds (with -sched)")
	obsAddr := flag.String("obs-addr", "", "serve the observability registry at this address while the run executes "+
		"(e.g. 127.0.0.1:9100; Prometheus text at /metrics, ASCII histograms at /histograms)")
	apiAddr := flag.String("api-addr", "", "serve the multi-tenant energy query API at this address during a live run "+
		"(e.g. 127.0.0.1:9200; per-user reports, job phases, node windows, rack power; needs -sched or -scenario)")
	apiQuota := flag.Float64("api-quota", 0, "per-tenant API request budget in req/s (0 = unthrottled; with -api-addr)")
	apiLinger := flag.Duration("api-linger", 0, "keep the energy query API serving this long after the run completes (with -api-addr)")
	tourn := flag.Bool("tournament", false, "run the strategy tournament: every admission policy ("+
		strings.Join(tournament.PolicyNames(), ", ")+") across clean + chaos + scenario axes at the "+
		"E19 reference geometry, scored and ranked (seed from -seed when set, else the reference seed 7)")
	tournPolicies := flag.String("policies", "", "comma-separated tournament policy subset (with -tournament; empty = all)")
	tournAxes := flag.String("axes", "", "comma-separated tournament axis subset: clean, chaos/<preset> or scenario/<name> "+
		"(with -tournament; empty = all)")
	tournOut := flag.String("tournament-out", "", "write the machine-readable tournament report to this JSON file (with -tournament)")
	ledgerPath := flag.String("ledger", "", "regenerate STRATEGY_LEDGER.md at this path from the tournament report, "+
		"preserving its curated findings section (with -tournament)")
	tournFrom := flag.String("tournament-from", "", "render the ledger from this existing tournament.json instead of re-running "+
		"(with -tournament and -ledger)")
	obsDump := flag.String("obs-dump", "", "write the final Prometheus-text registry snapshot to this file at exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// NaN passes every `x <= 0` test below and reaches the controller as a
	// cap that never admits a job, or the API as a quota that refuses every
	// request; Inf never ends a replay. Both are usage errors before
	// anything listens.
	for _, f := range []struct {
		name string
		v    float64
	}{{"-cap", *capKW}, {"-tick", *tick}, {"-stream", *stream}, {"-api-quota", *apiQuota}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			usageError("%s %g: want a finite number", f.name, f.v)
		}
	}

	// Names resolve before anything listens: the scenario, and the run's
	// dispatch strategy by registry name — -policy on the batch simulator,
	// -sched (default power under -scenario) on the live control plane.
	// A power-aware strategy has nothing to admit under at -cap 0.
	strategy, err := sched.Lookup(*policy)
	if err != nil {
		usageError("-policy: %v", err)
	}
	var sc *scenario.Scenario
	if *scenarioName != "" {
		if sc, err = scenario.Get(*scenarioName); err != nil {
			usageError("-scenario: %v", err)
		}
	}
	strategyFlag := "-policy"
	if *schedMode != "" || *scenarioName != "" {
		mode := *schedMode
		if mode == "" {
			mode = "power"
		}
		if strategy, err = sched.Lookup(mode); err != nil {
			usageError("-sched: %v", err)
		}
		strategyFlag = "-sched"
	}
	if strategy.PowerAware() && *capKW <= 0 && !*tourn {
		twin := "fifo"
		if s, err := sched.Lookup(strings.TrimSuffix(strategy.Name(), "-power")); err == nil && !s.PowerAware() {
			twin = s.Name()
		}
		usageError("%s %s admits under the power cap, which -cap 0 disables: pass %s %s",
			strategyFlag, strategy.Name(), strategyFlag, twin)
	}

	// Pure flag validation: reject a bad chaos setup before the
	// scheduled simulation burns minutes of wall clock. A single -chaos
	// name resolves to its plain preset plan (bridge presets included);
	// a comma-separated list composes gateway presets into one stacked
	// plan, every name validated up front against both registries. Each
	// refusal below is a usage error, made before anything listens.
	var chaosPlan chaos.Planner
	bridgeChaos := false
	if *chaosName != "" {
		if *stream <= 0 && *schedMode == "" && *scenarioName == "" {
			usageError("-chaos %q needs a telemetry path: pass -stream <seconds> or -sched <policy>", *chaosName)
		}
		names := strings.Split(*chaosName, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		if len(names) == 1 {
			bridgeChaos = fleet.IsBridgePreset(names[0])
			if bridgeChaos && *racks <= 1 {
				usageError("-chaos %q faults rack→spine uplinks: pass -racks > 1", names[0])
			}
			if bridgeChaos && *schedMode != "" {
				usageError("-chaos %q shapes the spine copy, which only a -stream replay verifies; drop -sched", names[0])
			}
			plan, err := fleet.ChaosPreset(names[0], *seed)
			if err != nil {
				usageError("-chaos: %v", err)
			}
			chaosPlan = plan
		} else {
			phases := make([]fleet.ChaosPhase, len(names))
			for i, n := range names {
				phases[i] = fleet.ChaosPhase{Preset: n} // always-on
			}
			stack, err := fleet.ChaosStack(*seed, phases...)
			if err != nil {
				usageError("-chaos: %v", err)
			}
			chaosPlan = stack
		}
	}
	if *scenarioName != "" && *chaosName != "" {
		usageError("-scenario %q owns its chaos stack; drop -chaos", *scenarioName)
	}
	if *scenarioName != "" && *stream > 0 {
		usageError("-scenario %q runs on the live control plane; drop -stream", *scenarioName)
	}
	if *racks < 1 {
		usageError("-racks must be >= 1")
	}
	if !*tourn && (*tournPolicies != "" || *tournAxes != "" || *tournOut != "" || *ledgerPath != "" || *tournFrom != "") {
		usageError("-policies/-axes/-tournament-out/-ledger/-tournament-from need -tournament")
	}
	if *tourn && (*schedMode != "" || *scenarioName != "" || *stream > 0 || *chaosName != "" ||
		*obsAddr != "" || *obsDump != "" || *apiAddr != "") {
		usageError("-tournament owns its runs; drop -sched/-scenario/-stream/-chaos/-obs-addr/-obs-dump/-api-addr")
	}
	if *apiAddr != "" && *schedMode == "" && *scenarioName == "" {
		usageError("-api-addr serves a live run: pass -sched <policy> or -scenario <name>")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() { pprof.StopCPUProfile(); _ = f.Close() }()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer func() { _ = f.Close() }()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *tourn {
		cfg := tournament.Config{}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				cfg.Seed = *seed
			}
		})
		if *tournPolicies != "" {
			cfg.Policies = splitList(*tournPolicies)
		}
		if *tournAxes != "" {
			cfg.Axes = splitList(*tournAxes)
		}
		runTournament(cfg, *tournFrom, *tournOut, *ledgerPath)
		return
	}

	gen, err := workload.NewGenerator(workload.DefaultGeneratorConfig(*seed))
	if err != nil {
		log.Fatal(err)
	}
	train, err := gen.Batch(1500)
	if err != nil {
		log.Fatal(err)
	}
	work, err := gen.Batch(*jobs)
	if err != nil {
		log.Fatal(err)
	}
	rebase(work)

	sys, err := core.NewSystem(train)
	if err != nil {
		log.Fatal(err)
	}
	sys.StreamRacks = *racks

	// Observability: one registry for the whole process. Every replay
	// and live run publishes into it; the optional endpoint serves it
	// live and -obs-dump snapshots it on the way out.
	if *obsAddr != "" || *obsDump != "" {
		reg := obs.NewRegistry()
		sys.Obs = reg
		if *obsAddr != "" {
			srv, err := obs.Serve(*obsAddr, reg)
			if err != nil {
				log.Fatal(err)
			}
			defer func() { _ = srv.Close() }()
			fmt.Printf("observability: serving http://%s/metrics\n", srv.Addr())
		}
		if *obsDump != "" {
			path := *obsDump
			defer func() {
				if err := os.WriteFile(path, []byte(reg.Text(true)), 0o644); err != nil {
					log.Printf("obs-dump: %v", err)
				}
			}()
		}
	}

	// Energy query API: listen now, bind the backend once the live plant
	// exists (OnPlant), so clients can connect from the first tick.
	var apiOnPlant func(core.LivePlant)
	if *apiAddr != "" {
		apiSrv, err := energyserve.Serve(*apiAddr, energyserve.Options{
			QuotaRate: *apiQuota,
			Obs:       sys.Obs,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer func() { _ = apiSrv.Close() }()
		fmt.Printf("energy API: serving http://%s/v1 (per-tenant quota %g req/s)\n", apiSrv.Addr(), *apiQuota)
		apiOnPlant = func(p core.LivePlant) {
			apiSrv.Bind(energyserve.Backend{
				Store:       p.Store,
				Ledger:      p.Ledger,
				Assignments: p.Assignments,
				Nodes:       p.Nodes,
				RackSize:    p.RackSize,
			})
		}
	}

	if *scenarioName != "" || *schedMode != "" {
		lcfg := core.LiveConfig{
			Nodes:   *streamNodes,
			OnPlant: apiOnPlant,
			Sched: sched.ControllerConfig{
				Strategy: strategy,
				Config:   sched.Config{PowerCapW: *capKW * 1000, ReactiveCapping: *reactive},
				TickS:    *tick,
			},
		}
		if sc != nil {
			runScenario(sys, work, sc, lcfg, *seed)
		} else {
			if chaosPlan != nil {
				sys.StreamFaults = chaosPlan
				sys.StreamBatchSamples = chaosBatchSamples
			}
			runLive(sys, work, lcfg, *chaosName, *seed)
		}
		lingerAPI(*apiAddr, *apiLinger)
		return
	}

	cfg := sched.Config{
		PowerCapW:       *capKW * 1000,
		ReactiveCapping: *reactive,
	}
	res, err := sys.RunScheduled(work, cfg, strategy)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("D.A.V.I.D.E. pilot simulation — %d nodes, policy %s\n",
		core.PilotNodes, res.Policy)
	fmt.Printf("  jobs                 %d\n", res.Jobs)
	fmt.Printf("  makespan             %.1f h\n", res.Makespan/3600)
	fmt.Printf("  mean wait            %.1f min\n", res.MeanWait/60)
	fmt.Printf("  mean bounded slowdown %.2f (p95 %.2f)\n", res.MeanSlowdown, res.P95Slowdown)
	fmt.Printf("  utilisation          %.1f %%\n", res.UtilizationPct)
	fmt.Printf("  energy               %s (%.1f kWh)\n",
		units.Joule(res.EnergyJ), units.Joule(res.EnergyJ).KWh())
	if res.CapW > 0 {
		fmt.Printf("  power cap            %.1f kW, violated %.1f s (RMS overshoot %.0f W)\n",
			res.CapW/1000, res.CapViolationSec, res.CapOverRMSW)
	}
	fmt.Printf("  slowdown fairness    Gini %.3f\n\n", res.SlowdownGini)

	fmt.Println("Top energy consumers (per-user accounting):")
	for i, u := range sys.Ledger.PerUser() {
		if i >= 5 {
			break
		}
		fmt.Printf("  user %2d: %8.1f kWh over %3d jobs (%.0f J/node-s)\n",
			u.User, units.Joule(u.EnergyJ).KWh(), u.Jobs, u.EnergyPerNodeSecond)
	}

	if *stream > 0 {
		if chaosPlan != nil {
			if bridgeChaos {
				sys.BridgeFaults = chaosPlan
			} else {
				sys.StreamFaults = chaosPlan
			}
			sys.StreamBatchSamples = chaosBatchSamples
		}
		sres, err := sys.StreamWindow(0, *stream, replayRate, *streamNodes)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nTelemetry fleet replay — %d gateways over real MQTT:\n", sres.NodesStreamed)
		fmt.Printf("  window               %.0f virtual s at %.0f S/s\n", sres.Window, replayRate)
		fmt.Printf("  samples / batches    %d / %d\n", sres.SamplesSent, sres.BatchesSent)
		fmt.Printf("  broker publishes     %d (dropped %d)\n", sres.BrokerPublishes, sres.BrokerDropped)
		if sres.Racks > 1 {
			fmt.Printf("  tiered fabric        %d racks, bridges forwarded %d (dropped %d, redials %d)\n",
				sres.Racks, sres.Bridge.Forwarded, sres.Bridge.Dropped, sres.Bridge.UplinkRedials)
		}
		fmt.Printf("  wire codec           %s (%.2f B/sample, %d fan-out encode hits)\n",
			gateway.CodecBinary, sres.WireBytesPerSample, sres.BrokerFanoutEncodedOnce)
		fmt.Printf("  pooled buffer reuse  broker %d / clients %d\n",
			sres.BrokerBufReuses, sres.ClientBufReuses)
		fmt.Printf("  wall clock           %s\n", sres.WallClock)
		fmt.Printf("  max energy error     %.4f %%\n", sres.MaxEnergyErrPct)
		switch {
		case bridgeChaos:
			f := sres.BridgeFaults
			fmt.Printf("\nBridge chaos scenario %q (seed %d) on the rack→spine uplinks:\n", *chaosName, *seed)
			fmt.Printf("  injected             drop %d / dup %d / crash %d\n", f.Dropped, f.Duplicated, f.Crashes)
			fmt.Printf("  uplink redials       %d (retries %d)\n", sres.Bridge.UplinkRedials, sres.Bridge.Retries)
			fmt.Printf("  samples lost / duped %d / %d (of %d sent)\n",
				f.SamplesLost, f.SamplesDuplicated, sres.SamplesSent)
			fmt.Printf("  spine copy           %d samples (published − lost + duplicated), max energy error %.4f %%\n",
				sres.SpineSamples, sres.SpineMaxEnergyErrPct)
		case *chaosName != "":
			f := sres.Faults
			fmt.Printf("\nChaos scenario %q (seed %d):\n", *chaosName, *seed)
			fmt.Printf("  injected             drop %d / partition %d / corrupt %d / dup %d / hold %d\n",
				f.Dropped, f.Partitioned, f.Corrupted, f.Duplicated, f.Held)
			fmt.Printf("  crashes / restarts   %d / %d\n", f.Crashes, sres.GatewayRestarts)
			fmt.Printf("  delayed deliveries   %d\n", f.Delayed)
			fmt.Printf("  samples lost / duped %d / %d (of %d sent)\n",
				f.SamplesLost, f.SamplesDuplicated, sres.SamplesSent)
			fmt.Printf("  agg reordered        %d (expected %d)\n", sres.ReorderedBatches, f.ExpectedReorders())
			fmt.Printf("  agg undecodable      %d (expected %d)\n", sres.UndecodableDropped, f.Corrupted)
		}
	}
}

// lingerAPI keeps the process alive so API clients can query the
// completed run's ledger and store.
func lingerAPI(addr string, d time.Duration) {
	if addr == "" || d <= 0 {
		return
	}
	fmt.Printf("\nenergy API: serving the completed run for %s more\n", d)
	time.Sleep(d)
}

// runLive executes the closed-loop control plane and prints its summary.
func runLive(sys *core.System, work []workload.Job, cfg core.LiveConfig, chaosName string, seed int64) {
	res, err := sys.RunLive(work, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("D.A.V.I.D.E. live control plane — policy %s, %.0f s ticks\n", res.Policy, cfg.Sched.TickS)
	fmt.Printf("  jobs                 %d over %d ticks\n", res.Jobs, res.Ticks)
	fmt.Printf("  makespan             %.1f h\n", res.Makespan/3600)
	fmt.Printf("  mean wait            %.1f min (max %.1f)\n", res.MeanWait/60, res.MaxWait/60)
	fmt.Printf("  mean bounded slowdown %.2f (p95 %.2f)\n", res.MeanSlowdown, res.P95Slowdown)
	fmt.Printf("  utilisation          %.1f %%\n", res.UtilizationPct)
	fmt.Printf("  energy true          %s (%.1f kWh)\n",
		units.Joule(res.EnergyJ), units.Joule(res.EnergyJ).KWh())
	fmt.Printf("  energy measured      %s (%+.3f %% vs true)\n",
		units.Joule(res.MeasuredEnergyJ), 100*(res.MeasuredEnergyJ-res.EnergyJ)/res.EnergyJ)
	if res.CapW > 0 {
		fmt.Printf("  power cap            %.1f kW, true violation %.0f s (max over %.2f %%), measured violation %.0f s\n",
			res.CapW/1000, res.CapViolationSec, res.MaxOverPct, res.MeasuredCapViolationSec)
	}
	fmt.Printf("  admissions refused   %d (power headroom)\n", res.RefusedAdmissions)
	fmt.Printf("  telemetry reads      %d fresh / %d held (hold-last-safe)\n", res.FreshReads, res.StaleReads)
	fmt.Printf("  predictor retrains   %d (measure failures %d)\n", res.Retrains, res.MeasureFailures)
	fmt.Printf("  samples streamed     %d (%.2f wire B/sample, %d batches)\n",
		res.SamplesSent, res.WireBytesPerSample, res.BatchesSent)
	fmt.Printf("  wall clock           %s\n", res.WallClock)
	fmt.Println("\nPer-rack report (folded from the controller's reads):")
	for _, r := range res.Racks {
		fmt.Printf("  rack %d (nodes %d-%d): cap %.0f W/node, %d steps, %d held, %d over-cap\n",
			r.Rack, r.FirstNode, r.FirstNode+r.Nodes-1, r.CapW, r.Steps, r.Held, r.Violations)
	}
	if chaosName != "" {
		f := res.Faults
		fmt.Printf("\nChaos scenario %q (seed %d):\n", chaosName, seed)
		fmt.Printf("  injected             drop %d / partition %d / corrupt %d / dup %d / hold %d\n",
			f.Dropped, f.Partitioned, f.Corrupted, f.Duplicated, f.Held)
		fmt.Printf("  crashes / restarts   %d / %d\n", f.Crashes, res.GatewayRestarts)
		fmt.Printf("  samples lost / duped %d / %d (of %d sent)\n",
			f.SamplesLost, f.SamplesDuplicated, res.SamplesSent)
		fmt.Printf("  agg reordered        %d, undecodable %d, store OO-dropped %d\n",
			res.ReorderedBatches, res.UndecodableDropped, res.StoreOutOfOrderDropped)
	}
}

// runScenario executes a named scenario on the live control plane and
// prints its summary plus the per-phase cap-tracking overlay.
func runScenario(sys *core.System, work []workload.Job, sc *scenario.Scenario, cfg core.LiveConfig, seed int64) {
	res, err := sys.RunScenario(sc, seed, work, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("D.A.V.I.D.E. scenario %q — %s\n", sc.Name, sc.Desc)
	fmt.Printf("  policy               %s, %.0f s ticks, seed %d\n", res.Policy, cfg.Sched.TickS, seed)
	fmt.Printf("  jobs                 %d over %d ticks\n", res.Jobs, res.Ticks)
	fmt.Printf("  makespan             %.1f h\n", res.Makespan/3600)
	fmt.Printf("  mean wait            %.1f min (max %.1f)\n", res.MeanWait/60, res.MaxWait/60)
	fmt.Printf("  utilisation          %.1f %%\n", res.UtilizationPct)
	fmt.Printf("  energy true          %s (%.1f kWh)\n",
		units.Joule(res.EnergyJ), units.Joule(res.EnergyJ).KWh())
	fmt.Printf("  energy measured      %s (error %.3f %%, bound %g %%)\n",
		units.Joule(res.MeasuredEnergyJ), res.EnergyErrPct(), sc.MaxEnergyErrPct)
	if res.CapW > 0 {
		fmt.Printf("  nominal cap          %.1f kW (final tracked %.1f kW)\n", res.CapW/1000, res.FinalCapW/1000)
		fmt.Printf("  true violation       %.0f s (max over %.2f %%, bound %g %%)\n",
			res.CapViolationSec, res.MaxOverPct, sc.MaxOverPct)
	}
	fmt.Printf("  telemetry reads      %d fresh / %d held\n", res.FreshReads, res.StaleReads)
	if sc.BrownoutStaleFrac > 0 {
		fmt.Printf("  brownout             %d transitions, %d ticks browned out (stale-frac threshold %g)\n",
			res.BrownoutTransitions, res.BrownoutTicks, sc.BrownoutStaleFrac)
	}
	if len(sc.Chaos) > 0 {
		f := res.Faults
		fmt.Printf("  chaos injected       drop %d / partition %d / corrupt %d / dup %d / hold %d / crash %d\n",
			f.Dropped, f.Partitioned, f.Corrupted, f.Duplicated, f.Held, f.Crashes)
	}
	fmt.Printf("  wall clock           %s\n", res.WallClock)
	if len(res.PhaseOvershoot) > 0 {
		fmt.Println("\nCap tracking per phase (true vs ramp-limited cap):")
		for _, ph := range res.PhaseOvershoot {
			t1 := fmt.Sprintf("%.0f", ph.T1)
			if ph.T1 > res.Makespan {
				t1 = "end"
			}
			fmt.Printf("  %-12s [%5.0f, %5s) %4d ticks, %3d over, max %6.0f W (%5.2f %%), mean over %5.0f W, cap %6.0f W, power %6.0f W\n",
				ph.Phase, ph.T0, t1, ph.Ticks, ph.OverTicks, ph.MaxOverW, ph.MaxOverPct, ph.MeanOverW, ph.MeanCapW, ph.MeanPowerW)
		}
	}
}

// usageError reports a bad flag value on one line and exits with the
// flag package's usage status, 2.
func usageError(format string, args ...any) {
	log.Printf(format, args...)
	os.Exit(2)
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runTournament executes (or, with fromPath, reloads) the strategy
// tournament, prints the leaderboard and writes the requested
// artifacts.
func runTournament(cfg tournament.Config, fromPath, outPath, ledgerPath string) {
	var rep *tournament.Report
	if fromPath != "" {
		data, err := os.ReadFile(fromPath)
		if err != nil {
			log.Fatal(err)
		}
		if rep, err = tournament.DecodeJSON(data); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tournament: loaded %s (%d policies × %d axes)\n",
			fromPath, len(rep.Config.Policies), len(rep.Config.Axes))
	} else {
		start := time.Now()
		fmt.Println("tournament: running (one live closed-loop run per cell)...")
		var err error
		rep, err = tournament.Run(cfg, func(done, total int, c tournament.Cell) {
			fmt.Printf("  [%3d/%3d] %-10s %-24s max-over %6.2f %%  mean-wait %5.0f s\n",
				done, total, c.Policy, c.Axis, c.MaxOverPct, c.MeanWaitS)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tournament: %d cells in %s (seed %d)\n",
			len(rep.Cells), time.Since(start).Round(time.Millisecond), rep.Config.Seed)
	}

	fmt.Println("\nLeaderboard (lower composite is better):")
	for _, st := range rep.Standings {
		aware := "power-blind"
		if st.PowerAware {
			aware = "power-aware"
		}
		fmt.Printf("  %d. %-10s composite %.4f  wins %d/%d  (%s)\n",
			st.Rank, st.Policy, st.Composite, st.AxisWins, len(rep.Config.Axes), aware)
	}

	if outPath != "" {
		data, err := rep.EncodeJSON()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntournament: wrote %s\n", outPath)
	}
	if ledgerPath != "" {
		prev := ""
		if b, err := os.ReadFile(ledgerPath); err == nil {
			prev = string(b)
		}
		if err := os.WriteFile(ledgerPath, []byte(tournament.RenderLedger(rep, prev)), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tournament: regenerated %s (curated findings preserved)\n", ledgerPath)
	}
}

// rebase shifts submit times so the first job arrives at t=0.
func rebase(jobs []workload.Job) {
	if len(jobs) == 0 {
		return
	}
	base := jobs[0].SubmitAt
	for i := range jobs {
		jobs[i].SubmitAt -= base
	}
}
