// Command egmon demonstrates the live telemetry plane: it stands up the
// same telemetry plane every replay uses (real MQTT broker(s) in
// process, one PTP-synchronised energy gateway per simulated node, an
// aggregator agent over the compressed store), streams the nodes' power
// signals, and prints per-node mean power and energy — the D.A.V.I.D.E.
// monitoring pipeline end to end on one machine. -racks 1 (the default)
// is the pilot's one broker; -racks N partitions the nodes over per-rack
// brokers with bridge uplinks into a spine.
//
// The aggregator persists the stream into the compressed tsdb store, so
// a replay can be interrogated after the fact: -node selects a node to
// query, -t0/-t1 bound the window (defaults: the streamed window) and
// -res picks the resolution (0 = raw samples, else a rollup width in
// seconds).
//
// Every replay is instrumented and surfaces the plane's own health
// counters post-hoc instead of leaving them buried in davide-sim
// summaries: it prints per-stage latency quantiles and, with -racks > 1,
// per-rack bridge drop / queue high-water counters. -metric queries the
// self-ingested health series after the run (-metric list enumerates
// them). The control plane — the live loop and named scenarios — is
// davide-sim's (-sched, -scenario).
//
// With -api URL egmon stops simulating anything and becomes a client of
// a running energy query service (davide-sim -api-addr): top users and
// rack power come over HTTP/JSON, and -node/-t0/-t1/-res issues a remote
// window query. Without -api the same questions are answered in-process
// as before.
//
// Usage:
//
//	egmon [-racks R] [-nodes N] [-window SEC] [-rate S/s] [-node K -t0 T -t1 T -res SEC] [-metric NAME | -metric list]
//	egmon -api 127.0.0.1:9200 [-tenant NAME] [-node K -t0 T -t1 T -res SEC]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"davide/internal/core"
	"davide/internal/energyserve"
	"davide/internal/fleet"
	"davide/internal/obs"
	"davide/internal/sensor"
)

// oversample is the replay gateways' raw-to-delivered rate ratio, the
// paper's 800 kS/s averaged to 50 kS/s.
const oversample = 16

func main() {
	log.SetFlags(0)
	log.SetPrefix("egmon: ")

	nodes := flag.Int("nodes", 6, "number of simulated nodes")
	window := flag.Float64("window", 30, "seconds of virtual time to stream")
	rate := flag.Float64("rate", 100, "delivered samples per second per node")
	qNode := flag.Int("node", -1, "node to interrogate after the replay (-1 = none)")
	qT0 := flag.Float64("t0", -1, "query window start (default: stream start)")
	qT1 := flag.Float64("t1", -1, "query window end (default: stream end)")
	qRes := flag.Float64("res", 1, "query resolution in seconds (0 = raw samples)")
	racks := flag.Int("racks", 1, "rack broker cells of the replay's telemetry plane (1 = one broker; more add bridge uplinks into a spine)")
	metric := flag.String("metric", "", "post-hoc health-series query against the self-ingested registry snapshot ('list' enumerates)")
	api := flag.String("api", "", "query a running energy service (davide-sim -api-addr) at this address instead of simulating in-process")
	tenant := flag.String("tenant", "egmon", "tenant identity for -api requests (per-tenant quotas apply server-side)")
	flag.Parse()
	if *api != "" {
		runAPI(*api, *tenant, *qNode, *qT0, *qT1, *qRes)
		return
	}
	// A gateway converts its whole window in one call, oversample raw
	// conversions per delivered sample, and the sensor refuses more than
	// MaxRawSamples of them; NaN and Inf fail the comparisons too.
	if !(*nodes > 0 && *window > 0 && *rate > 0 && *window**rate*oversample <= sensor.MaxRawSamples) {
		log.Printf("-nodes, -window and -rate must be positive and -window × -rate at most %d samples a node", sensor.MaxRawSamples/oversample)
		fmt.Fprintln(os.Stderr, "usage: egmon [-racks R] [-nodes N] [-window SEC] [-rate S/s] ... (egmon -h lists every flag)")
		os.Exit(2)
	}
	if *racks < 1 {
		log.Fatal("-racks must be >= 1")
	}
	runPlane(*nodes, *racks, *window, *rate, *metric, *qNode, *qT0, *qT1, *qRes)
}

// demoSignal is node n's application phase pattern: a per-node base
// level, a square duty cycle and mains ripple.
func demoSignal(n int) sensor.Signal {
	return sensor.Sum{
		sensor.Const(360 + 200*float64(n)),
		sensor.Square{Low: 0, High: 800, Period: 2 + float64(n)/3, Duty: 0.4},
		sensor.Sine{Amp: 15, Freq: 50},
	}
}

// runPlane streams the demo signals through an instrumented telemetry
// plane — one broker at -racks 1, per-rack brokers bridged into a spine
// above that — prints the per-node view, and surfaces the plane's own
// health post-hoc from the registry: per-rack bridge counters and stage
// latencies, the figures davide-sim only prints as fleet-wide sums.
func runPlane(nodes, racks int, window, rate float64, metric string, qNode int, qT0, qT1, res float64) {
	reg := obs.NewRegistry()
	p, err := fleet.NewPlane(fleet.PlaneSpec{
		Racks:     racks,
		NodesHint: nodes,
		Gateway: fleet.GatewaySpec{
			SampleRate: rate, Oversample: oversample, ClientPrefix: "egmon", SeedBase: 100,
			BatchSamples: 256,
		},
		Obs: reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	for r := 0; r < racks; r++ {
		fmt.Printf("rack r%02d MQTT broker listening on %s\n", r, p.RackAddr(r))
	}
	if racks > 1 {
		fmt.Printf("spine MQTT broker listening on %s\n", p.SpineAddr())
	}

	streams := make([]fleet.NodeStream, nodes)
	for n := 0; n < nodes; n++ {
		streams[n] = fleet.NodeStream{Node: n, Signal: demoSignal(n)}
	}
	t0, t1 := 30.0, 30+window
	// Snapshot both window edges: bucketed health queries sample-and-hold
	// between records, so a lone end-of-window record yields no buckets.
	si := core.NewSelfIngest(reg)
	si.Record(t0)
	st, err := p.Stream(context.Background(), streams, t0, t1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Replay — %d nodes over %d rack(s): %d samples in %d batches, %s wall\n",
		st.Nodes, st.Racks, st.Samples, st.Batches, st.Wall)

	agg := p.Aggregator()
	fmt.Printf("\n%-6s %12s %12s %10s\n", "node", "mean power", "energy", "samples")
	for _, n := range agg.Nodes() {
		mean, err := agg.MeanPower(n, t0, t1)
		if err != nil {
			log.Fatal(err)
		}
		e, err := agg.NodeEnergy(n, t0, t1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("node%02d %9.1f W %10.1f J %10d\n", n, mean, e, agg.Samples(n))
	}
	fmt.Println()
	for r := 0; r < racks; r++ {
		bs := &p.RackBroker(r).Stats
		fmt.Printf("broker r%02d: %d publishes in, %d out, %d dropped, %d B received\n", r,
			bs.PublishesIn.Load(), bs.PublishesOut.Load(), bs.Dropped.Load(), bs.BytesIn.Load())
	}
	ss := p.Store().Stats()
	fmt.Printf("store:  %d samples in %d chunks, %.2f B/sample compressed (flat slices: 16 B/sample)\n",
		ss.Samples, ss.Chunks, ss.BytesPerSample)

	snap := reg.Snapshot(true)
	stages := []string{"encode", "fanout", "decode", "commit"}
	if racks > 1 {
		fmt.Println("\nPer-rack bridge health (from the obs registry):")
		fmt.Printf("%-6s %12s %10s %12s\n", "rack", "forwarded", "dropped", "high-water")
		for r := 0; r < racks; r++ {
			label := fmt.Sprintf("bridge=%q", fmt.Sprintf("r%02d", r))
			fmt.Printf("r%02d    %12.0f %10.0f %12.0f\n", r,
				snapValue(snap, "davide_bridge_forwarded_total", label),
				snapValue(snap, "davide_bridge_dropped_total", label),
				snapValue(snap, "davide_bridge_queue_high_water", label))
		}
		stages = []string{"encode", "fanout", "uplink", "decode", "commit"}
	}

	fmt.Println("\nStage reorder lag per stage (seconds, all racks):")
	fmt.Printf("%-8s %10s %12s %12s\n", "stage", "batches", "p50", "p99")
	for _, stage := range stages {
		label := fmt.Sprintf("stage=%q", stage)
		n, p50, p99 := 0.0, 0.0, 0.0
		for _, m := range snap {
			if !strings.Contains(m.Name, label) || m.Hist == nil {
				continue
			}
			n += float64(m.Hist.N())
			if q, err := m.Hist.Quantile(0.50); err == nil && q*m.Scale > p50 {
				p50 = q * m.Scale
			}
			if q, err := m.Hist.Quantile(0.99); err == nil && q*m.Scale > p99 {
				p99 = q * m.Scale
			}
		}
		fmt.Printf("%-8s %10.0f %12.3g %12.3g\n", stage, n, p50, p99)
	}

	if qNode >= 0 {
		if qT0 < 0 {
			qT0 = t0
		}
		if qT1 < 0 {
			qT1 = t1
		}
		pts, err := p.Store().Fetch(qNode, qT0, qT1, res)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nnode%02d [%g, %g] at %g s resolution (%d rows)\n",
			qNode, qT0, qT1, res, len(pts))
		if res == 0 {
			// Raw samples carry no bucket span or energy — print them as
			// (time, watts) pairs.
			fmt.Printf("%-12s %12s\n", "time", "power")
			for _, p := range pts {
				fmt.Printf("%12.4f %9.1f W\n", p.T0, p.MeanW)
			}
		} else {
			fmt.Printf("%-22s %12s %12s %12s\n", "bucket", "mean power", "max power", "energy")
			for _, p := range pts {
				fmt.Printf("[%8.2f, %8.2f) %9.1f W %9.1f W %10.1f J\n",
					p.T0, p.T1, p.MeanW, p.MaxW, p.EnergyJ)
			}
		}
	}

	// The end-of-window record needs a right neighbor to get a hold
	// span, or bucketed queries would render the whole window from the
	// opening zeros alone.
	si.Record(t1)
	si.Record(t1 + 1)
	queryHealth(si, metric, t0, t1, res)
}

// snapValue returns the value of the first snapshot row whose name
// starts with base and contains label.
func snapValue(snap []obs.Metric, base, label string) float64 {
	for _, m := range snap {
		if strings.HasPrefix(m.Name, base) && strings.Contains(m.Name, label) {
			return m.Value
		}
	}
	return 0
}

// queryHealth resolves the -metric post-hoc query against the
// self-ingested health store.
func queryHealth(si *core.SelfIngest, metric string, t0, t1, res float64) {
	if metric == "" {
		return
	}
	if metric == "list" {
		fmt.Println("\nSelf-ingested health series:")
		for _, name := range si.Series() {
			fmt.Printf("  %s\n", name)
		}
		return
	}
	// The snapshot recorded on the window's closing edge would fall
	// outside a half-open [t0, t1) fetch; widen by one bucket so it is
	// always included.
	end := t1 + res
	if res <= 0 {
		end = t1 + 1
	}
	pts, err := si.Fetch(metric, t0, end, res)
	if err != nil {
		log.Fatal(err)
	}
	if pts == nil {
		log.Fatalf("health series %q not found (try -metric list)", metric)
	}
	fmt.Printf("\n%s over [%g, %g] at %g s resolution (%d rows):\n", metric, t0, t1, res, len(pts))
	for _, p := range pts {
		fmt.Printf("  [%8.2f, %8.2f) %g\n", p.T0, p.T1, p.MeanW)
	}
}

// runAPI is egmon's remote mode: instead of simulating a plant it
// interrogates a running energy query service (davide-sim -api-addr)
// over HTTP/JSON — top users by consumed energy, per-rack live power,
// and, when -node is given, a window query at the usual -t0/-t1/-res
// knobs. Per-tenant quotas apply server-side; a 429 surfaces the
// server's Retry-After hint instead of silently retrying.
func runAPI(addr, tenant string, qNode int, t0, t1, res float64) {
	c := energyserve.NewClient(addr, tenant)

	users, err := c.Users()
	if err != nil {
		fatalAPI(err)
	}
	fmt.Printf("energy service at %s (tenant %q)\n", addr, tenant)
	if len(users) == 0 {
		fmt.Println("no accounted jobs yet")
	} else {
		fmt.Printf("top users by energy (%d accounted):\n", len(users))
		for i, u := range users {
			if i == 5 {
				fmt.Printf("  ... %d more\n", len(users)-i)
				break
			}
			fmt.Printf("  user %3d  %3d jobs  %10.1f kJ\n", u.User, u.Jobs, u.EnergyJ/1e3)
		}
	}

	fmt.Println("rack power:")
	shown := 0
	for r := 0; r < 64; r++ {
		rp, err := c.RackPower(r)
		if err != nil {
			break // past the last rack, or nothing stored yet
		}
		fmt.Printf("  rack %2d (nodes %d..%d)  %8.1f W  as of t=%.1f\n",
			rp.Rack, rp.FirstNode, rp.FirstNode+rp.Nodes-1, rp.PowerW, rp.AsOf)
		shown++
	}
	if shown == 0 {
		fmt.Println("  (no telemetry stored yet)")
	}

	if qNode < 0 {
		return
	}
	if t0 < 0 || t1 < 0 {
		log.Fatal("a remote window query needs explicit bounds: pass -t0 and -t1 with -node")
	}
	win, err := c.Window(qNode, t0, t1, res)
	if err != nil {
		fatalAPI(err)
	}
	fmt.Printf("node %d over [%g, %g]: %.1f J, mean %.1f W (%d points at res %g)\n",
		win.Node, win.T0, win.T1, win.EnergyJ, win.MeanW, len(win.Points), win.Res)
	for i, p := range win.Points {
		if i == 10 {
			fmt.Printf("  ... %d more rows\n", len(win.Points)-i)
			break
		}
		fmt.Printf("  [%8.2f, %8.2f) %8.1f W\n", p.T0, p.T1, p.MeanW)
	}
}

// fatalAPI dies with a friendlier message for quota rejections.
func fatalAPI(err error) {
	var qe *energyserve.QuotaError
	if errors.As(err, &qe) {
		log.Fatalf("quota exceeded for this tenant; retry in %gs (server Retry-After)", qe.RetryAfter)
	}
	log.Fatal(err)
}
