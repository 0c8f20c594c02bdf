package telemetry

import (
	"math"
	"math/rand"
	"testing"

	"davide/internal/gateway"
	"davide/internal/tsdb"
)

// buildChaoticDelivery constructs a node's canonical batch stream plus
// a perturbed delivery schedule: duplicated batches, overlapping
// re-slices (two batches covering shared timestamps with identical
// values, like QoS-0 redelivery of a partially re-sent window), all in
// a seeded random order.
func buildChaoticDelivery(rng *rand.Rand, node, batches, batchSamples int) (canonical, delivery []gateway.Batch) {
	// A dyadic sample period keeps every timestamp computation exact in
	// float64 (start*dt + j*dt == (start+j)*dt bit-for-bit), so a
	// redelivered overlapping slice carries *identical* timestamps —
	// the property the duplicate-overwrite guard is specified against.
	// Real gateway streams get the same guarantee from the tsdb tick
	// grid.
	const dt = 1.0 / 32
	total := batches * batchSamples
	powers := make([]float64, total)
	level := 300 + rng.Float64()*200
	for i := range powers {
		if rng.Float64() < 0.02 { // occasional job edge
			level = 300 + rng.Float64()*1500
		}
		powers[i] = level + rng.Float64() // ADC-noise-ish jitter
	}
	mk := func(start, n int) gateway.Batch {
		b := gateway.Batch{Node: node, T0: float64(start) * dt, Dt: dt}
		b.Samples = append(b.Samples, powers[start:start+n]...)
		return b
	}
	for i := 0; i < batches; i++ {
		canonical = append(canonical, mk(i*batchSamples, batchSamples))
	}
	delivery = append(delivery, canonical...)
	// Duplicates: redeliver ~20% of the batches verbatim.
	for i := 0; i < batches; i++ {
		if rng.Float64() < 0.2 {
			delivery = append(delivery, canonical[i])
		}
	}
	// Overlaps: re-sliced windows straddling batch boundaries.
	for k := 0; k < batches/4; k++ {
		start := rng.Intn(total - batchSamples - 1)
		n := 2 + rng.Intn(batchSamples)
		delivery = append(delivery, mk(start, n))
	}
	rng.Shuffle(len(delivery), func(i, j int) { delivery[i], delivery[j] = delivery[j], delivery[i] })
	return canonical, delivery
}

// TestAggregatorIngestOrderInvariance is the ingest property test: for
// random interleavings of duplicated, reordered and overlapping
// batches, the reconstructed energy (raw integral and every rollup
// resolution) must equal sorted in-order delivery — the transport
// cannot corrupt accounting — and the store's integral must agree with
// the flat-scan oracle over the canonical samples. Seeded and
// table-driven.
func TestAggregatorIngestOrderInvariance(t *testing.T) {
	cases := []struct {
		name         string
		seed         int64
		nodes        int
		batches      int
		batchSamples int
	}{
		{"small-bursts", 1, 2, 12, 16},
		{"single-node-long", 2, 1, 48, 32},
		{"fleet-mixed", 3, 4, 24, 24},
		{"tiny-batches", 4, 3, 40, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			// Big chunk size keeps every sample in the head window, so
			// sorted insert can place arbitrary reorderings (the chaos
			// presets respect the same bound via their hold spans).
			opts := tsdb.Options{ChunkSize: 1 << 16}
			sorted := NewAggregatorOn(tsdb.New(opts))
			shuffled := NewAggregatorOn(tsdb.New(opts))

			type span struct{ t0, t1 float64 }
			spans := map[int]span{}
			flatT, flatW := map[int][]float64{}, map[int][]float64{}
			delivered := map[int]int{}
			for node := 0; node < tc.nodes; node++ {
				canonical, delivery := buildChaoticDelivery(rng, node, tc.batches, tc.batchSamples)
				for _, b := range canonical {
					sorted.AddBatch(b)
					for i, w := range b.Samples {
						flatT[node] = append(flatT[node], b.T0+float64(i)*b.Dt)
						flatW[node] = append(flatW[node], w)
					}
				}
				for _, b := range delivery {
					shuffled.AddBatch(b)
					delivered[node] += len(b.Samples)
				}
				last := canonical[len(canonical)-1]
				// Query through the last sample time: the trailing
				// rectangle beyond it depends on the final arrival's
				// local gap, which is order-dependent by construction.
				spans[node] = span{canonical[0].T0, last.T0 + float64(len(last.Samples)-1)*last.Dt}
			}

			for node := 0; node < tc.nodes; node++ {
				sp := spans[node]
				// Interior sub-windows too, not just the full span.
				width := sp.t1 - sp.t0
				windows := []span{
					sp,
					{sp.t0 + 0.25*width, sp.t0 + 0.75*width},
					{sp.t0 + 0.1*width, sp.t0 + 0.2*width},
				}
				for _, w := range windows {
					want, err := sorted.NodeEnergy(node, w.t0, w.t1)
					if err != nil {
						t.Fatal(err)
					}
					got, err := shuffled.NodeEnergy(node, w.t0, w.t1)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("node %d window %+v: store energy %v (shuffled) != %v (sorted)", node, w, got, want)
					}
					ref := naiveRectEnergy(flatT[node], flatW[node], w.t0, w.t1)
					if math.Abs(got-ref) > 1e-6*math.Abs(ref)+1e-9 {
						t.Fatalf("node %d window %+v: store %v vs flat-scan oracle %v", node, w, got, ref)
					}
				}

				// EnergyAt across every rollup resolution: bucket sums are
				// accumulated in arrival order, so allow float tolerance.
				for _, res := range sorted.Store().Resolutions() {
					want, err := sorted.Store().EnergyAt(node, sp.t0, sp.t1, res)
					if err != nil {
						t.Fatal(err)
					}
					got, err := shuffled.Store().EnergyAt(node, sp.t0, sp.t1, res)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(got-want) > 1e-6*math.Abs(want)+1e-9 {
						t.Fatalf("node %d EnergyAt(res=%v): %v (shuffled) != %v (sorted)", node, res, got, want)
					}
				}

				// The monotone ingest counter counts arrivals (incl.
				// duplicates), identically for any order of one multiset.
				if got := shuffled.Samples(node); got != delivered[node] {
					t.Fatalf("node %d: ingest counter %d, delivered %d samples", node, got, delivered[node])
				}
			}
		})
	}
}
