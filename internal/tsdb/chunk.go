package tsdb

import (
	"math"

	"davide/internal/wire"
)

// The chunk codec is the Gorilla scheme (Pelkonen et al., VLDB 2015), the
// same layout Prometheus and the ExaMon/KairosDB-style back ends the paper
// deploys use at rest: timestamps as delta-of-delta against a fixed tick
// grid, values as XOR against the previous sample with leading/trailing
// zero windows. Telemetry batches arrive on a uniform sample period, so
// the delta-of-delta is almost always zero (one bit per timestamp) and a
// piecewise-constant power trace XORs to zero (one bit per value). The
// bit-stream primitives live in internal/wire, shared with the gateway's
// on-the-wire batch codec.

// tickHz is the timestamp grid: 100 ns ticks (wire.TickHz).
const tickHz = wire.TickHz

// toTick quantises a time in seconds to the tick grid.
func toTick(t float64) int64 { return wire.ToTick(t) }

// toSec converts a tick back to seconds.
func toSec(tick int64) float64 { return wire.ToSec(tick) }

// encodeChunk compresses parallel (tick, watt) arrays into one byte
// stream. len(ticks) == len(watts) >= 1 and ticks strictly increase.
func encodeChunk(ticks []int64, watts []float64) []byte {
	var w wire.BitWriter
	// Two bytes a sample holds a chunk of this plant's telemetry (1-2.2
	// B/sample measured) with at most one regrowth.
	w.Reset(make([]byte, 0, 2*len(ticks)))
	w.WriteUvarint(wire.Zigzag(ticks[0]))
	w.WriteBits(math.Float64bits(watts[0]), 64)
	if len(ticks) == 1 {
		return w.Bytes()
	}
	delta := ticks[1] - ticks[0]
	w.WriteUvarint(wire.Zigzag(delta))
	prevDelta := delta
	prevBits := math.Float64bits(watts[0])
	var xs wire.XORState
	w.WriteXOR(math.Float64bits(watts[1]), prevBits, &xs)
	prevBits = math.Float64bits(watts[1])

	for i := 2; i < len(ticks); i++ {
		delta = ticks[i] - ticks[i-1]
		w.WriteDoD(delta - prevDelta)
		prevDelta = delta
		vb := math.Float64bits(watts[i])
		w.WriteXOR(vb, prevBits, &xs)
		prevBits = vb
	}
	return w.Bytes()
}

// decodeChunk streams count samples out of data, stopping early if fn
// returns false.
func decodeChunk(data []byte, count int, fn func(tick int64, w float64) bool) error {
	if count <= 0 {
		return nil
	}
	var r wire.BitReader
	r.Reset(data)
	u, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	tick := wire.Unzigzag(u)
	vb, err := r.ReadBits(64)
	if err != nil {
		return err
	}
	if !fn(tick, math.Float64frombits(vb)) || count == 1 {
		return nil
	}
	u, err = r.ReadUvarint()
	if err != nil {
		return err
	}
	delta := wire.Unzigzag(u)
	tick += delta
	var xs wire.XORState
	vb, err = r.ReadXOR(vb, &xs)
	if err != nil {
		return err
	}
	if !fn(tick, math.Float64frombits(vb)) {
		return nil
	}
	for i := 2; i < count; i++ {
		dod, err := r.ReadDoD()
		if err != nil {
			return err
		}
		delta += dod
		tick += delta
		vb, err = r.ReadXOR(vb, &xs)
		if err != nil {
			return err
		}
		if !fn(tick, math.Float64frombits(vb)) {
			return nil
		}
	}
	return nil
}
