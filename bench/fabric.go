package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"davide/internal/fleet"
)

// fabricShape is a telemetry-fabric workload: a gateway fleet streamed
// through fleet.Plane (rack brokers, bridges, spine, ingest pools, store)
// in successive windows [i*w, (i+1)*w). Successive — not repeated —
// windows append to the store; re-streaming one window would exercise
// the store's duplicate-overwrite path instead (the flaw in E20).
type fabricShape struct {
	racks      int
	nodes      int
	sampleRate float64
	batch      int
	oversample float64
	windowS    float64
	windows    int // timed windows per round, after one warm-up window
}

// fabric1k is the many-small-packets regime: 1024 pilot-default gateways
// over 8 racks, 64-sample batches, so the broker hop, the bridge hop and
// per-packet syscalls weigh next to sensor synthesis.
var fabric1k = fabricShape{racks: 8, nodes: 1024, sampleRate: 50, batch: 64, oversample: 16, windowS: 2, windows: 17}

// pilotBulk is the control for fabric1k: the 45-node pilot at 1 kS/s in
// 512-sample batches with no oversampling, so per-sample work (encode,
// decode, ingest, store append) dominates and per-packet work and
// synthesis almost vanish. An mqtt or sensor optimisation must not move
// it.
var pilotBulk = fabricShape{racks: 1, nodes: 45, sampleRate: 1000, batch: 512, oversample: 1, windowS: 10, windows: 30}

// maxEnergyErrPct is the documented accuracy bound of the telemetry
// path: per-node store energy within 1 % of the analytic integral.
const maxEnergyErrPct = 1.0

func (s fabricShape) def(name string, tailPct float64) workloadDef {
	return workloadDef{
		name: name,
		sizes: fmt.Sprintf("racks=%d nodes=%d rate=%g batch=%d oversample=%g window=%gs windows/round=%d+1 warm-up",
			s.racks, s.nodes, s.sampleRate, s.batch, s.oversample, s.windowS, s.windows),
		tailPct: tailPct,
		run:     s.run,
	}
}

func (s fabricShape) spec(seed int64) fleet.PlaneSpec {
	return fleet.PlaneSpec{
		Racks:     s.racks,
		NodesHint: s.nodes,
		Gateway: fleet.GatewaySpec{
			SampleRate:   s.sampleRate,
			Oversample:   s.oversample,
			BatchSamples: s.batch,
			ClientPrefix: "bench",
			// Monitor noise streams follow the seed too.
			SeedBase: 1000 + 100_000*seed,
		},
	}
}

func (s fabricShape) run(r *run) error {
	streams := fabricStreams(r.cfg.seed, s.nodes)
	ctx := context.Background()
	var energyBits []uint64
	for round := 0; r.more(); round++ {
		// Set-up: build the plane and stream one warm-up window, which
		// dials every gateway's broker session.
		t := time.Now()
		p, err := fleet.NewPlane(s.spec(r.cfg.seed))
		if err != nil {
			return err
		}
		warm, err := p.Stream(ctx, streams, 0, s.windowS)
		if err != nil {
			_ = p.Close()
			return err
		}
		r.setups = append(r.setups, time.Since(t).Seconds())

		published := warm.Samples
		lat := make([]float64, 0, s.windows)
		err = r.measure(func() (samples int64, err error) {
			for i := 1; i <= s.windows; i++ {
				r.pace()
				id := r.tr.begin("fleet.Plane.Stream", 0, int64(i))
				t := time.Now()
				st, err := p.Stream(ctx, streams, float64(i)*s.windowS, float64(i+1)*s.windowS)
				d := time.Since(t)
				r.tr.end(id)
				if err != nil {
					return samples, err
				}
				lat = append(lat, ms(d))
				samples += int64(st.Samples)
				for _, ns := range st.PerNode {
					if ns.Delivered {
						r.passed(1)
					} else {
						r.ok(false, "round %d window %d: node %d not delivered", round, i, ns.Node)
					}
				}
				r.ok(st.Bridge.Dropped == 0, "round %d window %d: bridges dropped %d", round, i, st.Bridge.Dropped)
			}
			published += int(samples)
			return samples, nil
		})
		if err != nil {
			_ = p.Close()
			return err
		}
		r.rounds = append(r.rounds, lat)

		bits, err := s.verify(r, p, streams, round, published)
		if cerr := p.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		energyBits = append(energyBits, bits)
	}
	for _, b := range energyBits[1:] {
		r.ok(b == energyBits[0], "fleet energy total differs between rounds: %#x vs %#x", b, energyBits[0])
	}
	r.exact("fleet_energy_total_bits=%#016x (%.6f J) energy_err_pct=%v", energyBits[0], math.Float64frombits(energyBits[0]), r.layer["check.energy_err_pct"])
	if r.cfg.traced {
		return s.stages(r, streams, float64(r.cpu)/float64(r.units))
	}
	return nil
}

// verify checks one round's store against what was published and returns
// the fleet energy total's exact bits.
func (s fabricShape) verify(r *run, p *fleet.Plane, streams []fleet.NodeStream, round, published int) (uint64, error) {
	dropped := p.SpineBroker().Stats.Dropped.Load()
	for k := 0; k < p.Racks(); k++ {
		dropped += p.RackBroker(k).Stats.Dropped.Load()
	}
	r.ok(dropped == 0, "round %d: brokers dropped %d messages", round, dropped)
	st := p.Store().Stats()
	// Zero duplicates proves the windows appended rather than overwrote.
	r.ok(st.Duplicates == 0, "round %d: store overwrote %d duplicate timestamps", round, st.Duplicates)
	r.ok(st.OutOfOrderDropped == 0, "round %d: store dropped %d samples behind the sealed horizon", round, st.OutOfOrderDropped)
	r.ok(st.Samples == published, "round %d: store holds %d samples, %d published", round, st.Samples, published)
	agg := p.Aggregator()
	r.ok(agg.Dropped() == 0, "round %d: aggregator dropped %d payloads", round, agg.Dropped())

	end := float64(s.windows+1) * s.windowS
	worst := 0.0
	for _, ns := range streams {
		got, err := agg.NodeEnergy(ns.Node, 0, end)
		if err != nil {
			return 0, err
		}
		want, err := ns.Signal.Energy(0, end)
		if err != nil {
			return 0, err
		}
		worst = max(worst, 100*math.Abs(got-want)/want)
	}
	r.ok(worst <= maxEnergyErrPct, "round %d: worst node energy error %.4f %% exceeds %.1f %%", round, worst, maxEnergyErrPct)
	r.layer["check.energy_err_pct"] = worst
	r.layer["tsdb.bytes_per_sample"] = st.BytesPerSample
	r.layer["tsdb.rollup_bytes"] = float64(st.RollupBytes)
	r.layer["telemetry.reordered"] = float64(agg.Reordered())
	r.layer["telemetry.dropped"] = float64(agg.Dropped())
	r.layer["mqtt.broker_dropped"] = float64(dropped)

	total, err := p.EnergyTotal(0, end)
	return math.Float64bits(total), err
}
