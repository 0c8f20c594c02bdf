package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"davide/internal/core"
	"davide/internal/fleet"
	"davide/internal/gateway"
	"davide/internal/monitors"
	"davide/internal/mqtt"
	"davide/internal/sensor"
	"davide/internal/telemetry"
	"davide/internal/tsdb"
)

// The per-layer half of the traced run: each stage below calls one
// layer's public functions on the workload's own generated inputs,
// pre-computing whatever the stage consumes so that no other layer's
// cost leaks into it. The sum of the fabric stages is then set against
// the CPU the whole pipeline spent per sample — the budget's residual is
// fleet.unattributed_pct.

// perLayer lists every metric a traced run reports. A layer a workload
// does not exercise reads 0: it was busy for no time.
var perLayer = []metricDef{
	{"sensor.synth_ns_per_sample", "ns"},
	{"gateway.encode_ns_per_sample", "ns"},
	{"gateway.decode_ns_per_sample", "ns"},
	{"gateway.wire_bytes_per_sample", "B"},
	{"mqtt.hop_us_per_msg", "us"},
	{"mqtt.hop_msgs_per_s", "1/s"},
	{"mqtt.bridge_hop_us_per_msg", "us"},
	{"mqtt.bridge_hop_cpu_us_per_msg", "us"},
	{"mqtt.broker_dropped", "count"},
	{"mqtt.fanout_encoded_once", "count"},
	{"mqtt.bridge_dropped", "count"},
	{"mqtt.bridge_retries", "count"},
	{"mqtt.bridge_queue_high_water", "count"},
	{"telemetry.ingest_ns_per_sample", "ns"},
	{"telemetry.reordered", "count"},
	{"telemetry.dropped", "count"},
	{"tsdb.append_ns_per_sample", "ns"},
	{"tsdb.append_aged_x", "x"},
	{"tsdb.bytes_per_sample", "B"},
	{"tsdb.rollup_bytes", "B"},
	{"tsdb.meanpower_us", "us"},
	{"tsdb.meanpower_aged_x", "x"},
	{"tsdb.query_raw_us", "us"},
	{"tsdb.query_rollup1_us", "us"},
	{"tsdb.query_rollup60_us", "us"},
	{"tsdb.write_us_p90", "us"},
	{"fleet.window_cpu_ns_per_sample", "ns"},
	{"fleet.stage_sum_ns_per_sample", "ns"},
	{"fleet.unattributed_pct", "%"},
	{"fleet.wire_bytes_per_sample", "B"},
	{"sched.dispatch_us_per_tick", "us"},
	{"sched.ticks", "count"},
	{"sched.retrains", "count"},
	{"sched.stale_reads", "count"},
	{"core.stream_tick_ms", "ms"},
	{"core.tick_other_ms", "ms"},
	{"core.tick_growth_x", "x"},
	{"energyserve.hot_query_us_p50", "us"},
	{"energyserve.cold_query_us_p50", "us"},
	{"energyserve.cold_query_us_p99", "us"},
	{"energyserve.live_query_us_p50", "us"},
	{"energyserve.ledger_query_us_p50", "us"},
	{"energyserve.hit_ratio_hot", "ratio"},
	{"energyserve.hit_ratio_all", "ratio"},
	{"energyserve.overhead_us_cold", "us"},
	{"energyserve.non200", "count"},
	{"accounting.job_lookup_us", "us"},
	{"generator.late_ms_max", "ms"},
	{"check.energy_err_pct", "%"},
	{"check.cap_over_pct", "%"},
	{"process.peak_rss_mb", "MB"},
	{"process.mallocs_per_unit", "count"},
	{"process.gc_cpu_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"trace.spans_dropped", "count"},
}

// stage times fn under a span and returns its wall and process-CPU time.
func (r *run) stage(name string, parent int, fn func() error) (wall, cpu time.Duration, err error) {
	id := r.tr.begin(name, parent, 0)
	c0, t0 := cpuTime(), time.Now()
	err = fn()
	wall, cpu = time.Since(t0), cpuTime()-c0
	r.tr.end(id)
	return wall, cpu, err
}

// wireMsg is one MQTT message a gateway would publish.
type wireMsg struct {
	node    int
	topic   string
	payload []byte
	qos     byte
	retain  bool
	samples int // 0 for an energy summary
}

// monitorSpec mirrors fleet.GatewaySpec's pilot defaults (the sampling
// chain fleet builds for every gateway; it is not exported).
func (s fabricShape) monitorSpec() monitors.Spec {
	return monitors.Spec{
		Class:        monitors.EnergyGateway,
		RawRate:      s.sampleRate * s.oversample,
		OutputRate:   s.sampleRate,
		Averaged:     true,
		Bits:         12,
		NoiseLSB:     0.5,
		ClockOffsetS: 5e-6,
		FullScale:    20000,
	}
}

// stageWindows is how many windows of the workload the stages replay.
const stageWindows = 2

// synth is the sensor stage: monitors.Monitor.Observe over every node's
// signal, window by window. It returns the sample trains for the stages
// downstream.
func (s fabricShape) synth(r *run, parent int, streams []fleet.NodeStream, seed int64) ([][]sensor.Sample, int, error) {
	mons := make([]*monitors.Monitor, len(streams))
	for i, ns := range streams {
		m, err := monitors.New(s.monitorSpec(), 1000+100_000*seed+int64(ns.Node))
		if err != nil {
			return nil, 0, err
		}
		mons[i] = m
	}
	var trains [][]sensor.Sample
	total := 0
	_, cpu, err := r.stage("monitors.Monitor.Observe", parent, func() error {
		for w := 1; w <= stageWindows; w++ {
			for i, ns := range streams {
				tr, err := mons[i].Observe(ns.Signal, float64(w)*s.windowS, float64(w+1)*s.windowS)
				if err != nil {
					return err
				}
				trains = append(trains, tr)
				total += len(tr)
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	r.layer["sensor.synth_ns_per_sample"] = float64(cpu) / float64(total)
	return trains, total, nil
}

// encodeTrain turns one window's sample train into the messages the
// gateway publishes for it: power batches of the workload's batch size
// and the retained energy summary. buf is the reused encode buffer.
func (s fabricShape) encodeTrain(node int, train []sensor.Sample, t0, t1 float64, buf []byte, samples []float64, emit func(wireMsg)) ([]byte, []float64, error) {
	dt := train[1].T - train[0].T
	for start := 0; start < len(train); start += s.batch {
		end := min(start+s.batch, len(train))
		samples = samples[:0]
		for _, sm := range train[start:end] {
			samples = append(samples, sm.P)
		}
		b := gateway.Batch{Node: node, T0: train[start].T, Dt: dt, Samples: samples}
		var err error
		if buf, err = b.AppendEncode(buf[:0], gateway.CodecBinary); err != nil {
			return buf, samples, err
		}
		emit(wireMsg{node: node, topic: gateway.PowerTopic(node), payload: buf, samples: end - start})
	}
	energy, err := sensor.EnergyFromSamples(train, t0, t1)
	if err != nil {
		return buf, samples, err
	}
	mean, err := sensor.MeanPower(train)
	if err != nil {
		return buf, samples, err
	}
	payload, err := gateway.EnergySummary{Node: node, T0: t0, T1: t1, Joules: energy, MeanW: mean}.Encode()
	if err != nil {
		return buf, samples, err
	}
	emit(wireMsg{node: node, topic: gateway.EnergyTopic(node), payload: payload, qos: 1, retain: true})
	return buf, samples, nil
}

// stages replays the fabric workload layer by layer and records the
// budget. cpuPerSample is what the whole pipeline spent per delivered
// sample in the traced rounds.
func (s fabricShape) stages(r *run, streams []fleet.NodeStream, cpuPerSample float64) error {
	root := r.tr.begin("stages", 0, 0)
	defer r.tr.end(root)

	trains, total, err := s.synth(r, root, streams, r.cfg.seed)
	if err != nil {
		return err
	}
	each := func(emit func(wireMsg)) error {
		var buf []byte
		var samples []float64
		for i, train := range trains {
			w, ns := 1+i/len(streams), streams[i%len(streams)]
			var err error
			buf, samples, err = s.encodeTrain(ns.Node, train, float64(w)*s.windowS, float64(w+1)*s.windowS, buf, samples, emit)
			if err != nil {
				return err
			}
		}
		return nil
	}
	// Encode twice: timed into the reused buffer as the gateway does,
	// then again untimed to keep a copy of every payload.
	_, cpu, err := r.stage("gateway.Batch.AppendEncode", root, func() error { return each(func(wireMsg) {}) })
	if err != nil {
		return err
	}
	encodeNS := float64(cpu) / float64(total)
	var msgs []wireMsg
	var wireBytes int
	err = each(func(m wireMsg) {
		m.payload = append([]byte(nil), m.payload...)
		if m.samples > 0 {
			wireBytes += len(m.payload)
		}
		msgs = append(msgs, m)
	})
	if err != nil {
		return err
	}

	var scratch []float64
	_, cpu, err = r.stage("gateway.DecodeBatchInto", root, func() error {
		for _, m := range msgs {
			if m.samples == 0 {
				continue
			}
			b, err := gateway.DecodeBatchInto(m.payload, scratch)
			if err != nil {
				return err
			}
			scratch = b.Samples
		}
		return nil
	})
	if err != nil {
		return err
	}
	decodeNS := float64(cpu) / float64(total)

	batches := make([]gateway.Batch, 0, len(msgs))
	for _, m := range msgs {
		if m.samples > 0 {
			b, err := gateway.DecodeBatch(m.payload)
			if err != nil {
				return err
			}
			batches = append(batches, b)
		}
	}
	agg := telemetry.NewAggregatorOn(tsdb.New(tsdb.Options{}))
	_, cpu, _ = r.stage("telemetry.Aggregator.AddBatch", root, func() error {
		for _, b := range batches {
			agg.AddBatch(b)
		}
		return nil
	})
	ingestNS := float64(cpu) / float64(total)
	db := tsdb.New(tsdb.Options{})
	_, cpu, _ = r.stage("tsdb.DB.AppendBatch", root, func() error {
		for _, b := range batches {
			db.AppendBatch(b.Node, b.T0, b.Dt, b.Samples)
		}
		return nil
	})
	r.layer["tsdb.append_ns_per_sample"] = float64(cpu) / float64(total)

	hopWall, _, err := r.stage("mqtt.hop", root, func() error { return hop(r, msgs, false) })
	if err != nil {
		return err
	}
	bridgeWall, bridgeCPU, err := r.stage("mqtt.bridge_hop", root, func() error { return hop(r, msgs, true) })
	if err != nil {
		return err
	}
	n := float64(len(msgs))
	hopNS := float64(bridgeCPU) / float64(total)

	sum := r.layer["sensor.synth_ns_per_sample"] + encodeNS + hopNS + decodeNS + ingestNS
	r.layer["gateway.encode_ns_per_sample"] = encodeNS
	r.layer["gateway.decode_ns_per_sample"] = decodeNS
	r.layer["gateway.wire_bytes_per_sample"] = float64(wireBytes) / float64(total)
	r.layer["fleet.wire_bytes_per_sample"] = float64(wireBytes) / float64(total)
	r.layer["telemetry.ingest_ns_per_sample"] = ingestNS
	r.layer["mqtt.hop_us_per_msg"] = us(hopWall) / n
	r.layer["mqtt.hop_msgs_per_s"] = n / hopWall.Seconds()
	r.layer["mqtt.bridge_hop_us_per_msg"] = us(bridgeWall) / n
	r.layer["mqtt.bridge_hop_cpu_us_per_msg"] = us(bridgeCPU) / n
	r.layer["fleet.window_cpu_ns_per_sample"] = cpuPerSample
	r.layer["fleet.stage_sum_ns_per_sample"] = sum
	r.layer["fleet.unattributed_pct"] = 100 * (cpuPerSample - sum) / cpuPerSample
	r.note("stage budget over %d samples in %d messages: synth %.1f + encode %.1f + hops %.1f + decode %.1f + ingest %.1f = %.1f ns/sample of %.1f measured",
		total, len(msgs), r.layer["sensor.synth_ns_per_sample"], encodeNS, hopNS, decodeNS, ingestNS, sum, cpuPerSample)
	return nil
}

// hop publishes msgs from GOMAXPROCS publisher clients into a broker on
// loopback and returns once a counting subscriber has received them all.
// With bridged set the broker also feeds an mqtt.Bridge into a spine
// broker — the rack cell of fleet.Plane minus the decode pool — and the
// bridge must drain too.
func hop(r *run, msgs []wireMsg, bridged bool) error {
	rack, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer rack.Close()
	// Sized so that no session queue can overflow: a drop would leave the
	// subscriber waiting for a message that never comes.
	rack.QueueDepth = len(msgs) + 16
	filters := []mqtt.Subscription{
		{Filter: gateway.TopicPrefix + "/+/power", QoS: 0},
		{Filter: gateway.TopicPrefix + "/+/energy", QoS: 1},
	}
	var br *mqtt.Bridge
	if bridged {
		spine, err := mqtt.NewBroker("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer spine.Close()
		br, err = mqtt.NewBridge(rack.Addr(), spine.Addr(), mqtt.BridgeOptions{
			Name: "bench-bridge", Filters: filters, QueueDepth: len(msgs) + 16,
		})
		if err != nil {
			return err
		}
		defer br.Close()
	}
	var got atomic.Int64
	all := make(chan struct{})
	sub, err := mqtt.Dial(rack.Addr(), mqtt.ClientOptions{
		ClientID: "bench-sub", CleanSession: true,
		OnMessage: func(mqtt.Message) {
			if got.Add(1) == int64(len(msgs)) {
				close(all)
			}
		},
	})
	if err != nil {
		return err
	}
	defer sub.Close()
	if err := sub.Subscribe(filters...); err != nil {
		return err
	}

	pubs := max(1, min(len(msgs), runtime.GOMAXPROCS(0)))
	errs := make([]error, pubs)
	var wg sync.WaitGroup
	for p := range pubs {
		c, err := mqtt.Dial(rack.Addr(), mqtt.ClientOptions{ClientID: fmt.Sprintf("bench-pub%02d", p)})
		if err != nil {
			return err
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A node's messages stay on one publisher, in order.
			for _, m := range msgs {
				if m.node%pubs != p {
					continue
				}
				if err := c.Publish(m.topic, m.payload, m.qos, m.retain); err != nil {
					errs[p] = err
					return
				}
			}
			errs[p] = c.Flush()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), fleet.DefaultWaitTimeout)
	defer cancel()
	select {
	case <-all:
	case <-ctx.Done():
		return fmt.Errorf("hop: subscriber received %d of %d messages", got.Load(), len(msgs))
	}
	dropped := rack.Stats.Dropped.Load()
	if br != nil {
		if err := br.Drain(ctx); err != nil {
			return err
		}
		st := br.Stats()
		r.ok(st.Dropped == 0 && int(st.Forwarded) == len(msgs), "bridge forwarded %d of %d, dropped %d", st.Forwarded, len(msgs), st.Dropped)
		r.layer["mqtt.bridge_dropped"] = float64(st.Dropped)
		r.layer["mqtt.bridge_retries"] = float64(st.Retries)
		r.layer["mqtt.bridge_queue_high_water"] = float64(st.HighWater)
		r.layer["mqtt.fanout_encoded_once"] = float64(rack.Stats.FanoutEncodedOnce.Load())
	}
	r.ok(dropped == 0, "hop: broker dropped %d messages", dropped)
	return nil
}

// controlLayers measures the control loop's layers stand-alone, on the
// loop's own pattern: 45 constant levels streamed per 15-s tick and read
// back, for as many ticks as a round measures.
func controlLayers(r *run) error {
	root := r.tr.begin("stages", 0, 0)
	defer r.tr.end(root)
	const ticks = controlTicks

	broker, err := mqtt.NewBroker("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer broker.Close()
	db := tsdb.New(tsdb.Options{})
	agg := telemetry.NewAggregatorOn(db)
	ingest, sub, err := agg.AttachParallel(broker.Addr(), "bench-agg", 0)
	if err != nil {
		return err
	}
	defer ingest.Close()
	defer sub.Close()
	fl, err := fleet.New(broker.Addr(), fleet.GatewaySpec{SampleRate: controlRate, ClientPrefix: "bench-live", SeedBase: 3000}, 0)
	if err != nil {
		return err
	}
	defer fl.Close()

	levels := make([]float64, controlNodes)
	for n := range levels {
		levels[n] = 360 + float64(n)
	}
	streamMS := make([]float64, 0, ticks)
	readUS := make([]float64, 0, ticks)
	ctx := context.Background()
	for i := range ticks {
		t0, t1 := float64(i)*controlTickS, float64(i+1)*controlTickS
		id := r.tr.begin("fleet.Fleet.StreamLevels", root, int64(i))
		t := time.Now()
		st, err := fl.StreamLevels(ctx, levels, t0, t1, agg)
		d := time.Since(t)
		r.tr.end(id)
		if err != nil {
			return err
		}
		for _, ns := range st.PerNode {
			r.ok(ns.Delivered, "stand-alone tick %d: node %d not delivered", i, ns.Node)
		}
		streamMS = append(streamMS, ms(d))
		// The controller's read-back: every node's freshness watermark
		// and mean power over the tick.
		id = r.tr.begin("tsdb.DB.MeanPower", root, int64(i))
		t = time.Now()
		for n := range controlNodes {
			db.IngestedSamples(n)
			if _, err := db.MeanPower(n, t0, t1); err != nil {
				return err
			}
		}
		readUS = append(readUS, us(time.Since(t)))
		r.tr.end(id)
	}

	// The store's share of a tick, alone: one tick's batch per node.
	fresh := tsdb.New(tsdb.Options{})
	batch := make([]float64, controlTickS*controlRate)
	for i := range batch {
		batch[i] = 400
	}
	appendUS := make([]float64, 0, ticks)
	id := r.tr.begin("tsdb.DB.AppendBatch", root, 0)
	for i := range ticks {
		t := time.Now()
		for n := range controlNodes {
			fresh.AppendBatch(n, float64(i)*controlTickS, 1/float64(controlRate), batch)
		}
		appendUS = append(appendUS, us(time.Since(t)))
	}
	r.tr.end(id)

	tickP50 := percentile(sortedCopy(flatten(r.rounds)), 50)
	streamP50 := median(streamMS)
	readP50 := median(readUS)
	r.layer["core.stream_tick_ms"] = streamP50
	r.layer["tsdb.meanpower_us"] = readP50
	r.layer["tsdb.meanpower_aged_x"] = growth([][]float64{readUS})
	r.layer["tsdb.append_aged_x"] = growth([][]float64{appendUS})
	r.layer["tsdb.append_ns_per_sample"] = 1000 * median(appendUS) / float64(controlNodes*len(batch))
	r.layer["core.tick_growth_x"] = growth(r.rounds)
	r.layer["core.tick_other_ms"] = tickP50 - streamP50 - readP50/1000 - r.layer["sched.dispatch_us_per_tick"]/1000
	st := db.Stats()
	r.layer["tsdb.bytes_per_sample"] = st.BytesPerSample
	r.layer["tsdb.rollup_bytes"] = float64(st.RollupBytes)
	r.note("stand-alone over %d ticks: stream p50 %.3f ms (aged %.2fx), read-back p50 %.1f us (aged %.2fx), store append aged %.2fx",
		ticks, streamP50, growth([][]float64{streamMS}), readP50, growth([][]float64{readUS}), growth([][]float64{appendUS}))

	// The sensor's share, on the loop's shape: constant levels, 15-s
	// windows at 4 S/s with the pilot's 16x oversampling.
	shape := fabricShape{nodes: controlNodes, sampleRate: controlRate, oversample: 16, windowS: controlTickS}
	streams := make([]fleet.NodeStream, controlNodes)
	for n := range streams {
		streams[n] = fleet.NodeStream{Node: n, Signal: sensor.Const(levels[n])}
	}
	_, _, err = shape.synth(r, root, streams, r.cfg.seed)
	return err
}

// queryLayers times the store and the ledger directly on the requests
// the last round issued, so the service's own share of a cold query is
// what is left over.
func queryLayers(r *run, plant core.LivePlant, reqs []query) error {
	root := r.tr.begin("stages", 0, 0)
	defer r.tr.end(root)
	byRes := map[float64][]float64{}
	var all []float64
	id := r.tr.begin("tsdb.DB.EnergyAt+Fetch", root, 0)
	for _, q := range reqs {
		if q.class != classCold {
			continue
		}
		t := time.Now()
		if _, err := plant.Store.EnergyAt(q.node, q.t0, q.t1, q.res); err != nil {
			return err
		}
		if _, err := plant.Store.Fetch(q.node, q.t0, q.t1, q.res); err != nil {
			return err
		}
		d := us(time.Since(t))
		byRes[q.res] = append(byRes[q.res], d)
		all = append(all, d)
	}
	r.tr.end(id)
	r.layer["tsdb.query_raw_us"] = median(byRes[0])
	r.layer["tsdb.query_rollup1_us"] = median(byRes[1])
	r.layer["tsdb.query_rollup60_us"] = median(byRes[60])
	r.layer["energyserve.overhead_us_cold"] = r.layer["energyserve.cold_query_us_p50"] - median(all)

	// A ledger lookup is far below the clock's resolution: time them a
	// thousand at a time.
	ids := jobIDs(plant.Assignments())
	const per = 1000
	var lookups []float64
	id = r.tr.begin("accounting.Ledger.Job", root, 0)
	for range 200 {
		t := time.Now()
		for i := range per {
			if _, err := plant.Ledger.Job(ids[i%len(ids)]); err != nil {
				return err
			}
		}
		lookups = append(lookups, us(time.Since(t))/per)
	}
	r.tr.end(id)
	r.layer["accounting.job_lookup_us"] = median(lookups)
	return nil
}
