package gateway

import (
	"errors"
	"fmt"
	"math"

	"davide/internal/wire"
)

// Codec names the batch wire format. There is one: the versioned
// compressed binary frame below.
type Codec string

// CodecBinary is the only batch wire format; the zero value selects it.
const CodecBinary Codec = "binary"

// The binary batch frame (version 1):
//
//	byte 0      magic 0xDA
//	byte 1      version (0x01)
//	uvarint     node ID
//	uvarint     sample count n (>= 1)
//	uvarint     dt in 100 ns ticks (>= 1; the delta-of-delta base)
//	uvarint     zigzag(t0 in ticks)
//	n-1 ×       timestamp delta-of-delta, Gorilla buckets (~1 bit each
//	            on a uniform grid)
//	64 bits     samples[0] as raw float64 bits
//	n-1 ×       samples[i] XOR-compressed against samples[i-1]
//
// Timestamps ride the same 100 ns tick grid the tsdb store quantises to
// (wire.TickHz), so the transport adds no loss beyond what the store
// already applies; watts are bit-exact. Any other first byte and any
// other version are refused, never guessed at: bumping the version byte
// is the upgrade path.
const (
	binMagic   = 0xDA
	binVersion = 0x01
)

// ErrShortPayload reports a payload too short to carry any batch frame.
var ErrShortPayload = errors.New("gateway: decode: short payload")

// AppendEncode serialises the batch as a binary frame, appending to dst
// (which may be nil). c must be CodecBinary or ""; any other name is
// refused. Passing a retained buffer's [:0] reslice makes steady-state
// encoding allocation-free once the buffer has grown to the batch size.
func (b Batch) AppendEncode(dst []byte, c Codec) ([]byte, error) {
	if c != "" && c != CodecBinary {
		return nil, fmt.Errorf("gateway: unknown codec %q", string(c))
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b.appendBinary(dst), nil
}

// appendBinary emits the version-1 binary frame. The batch is already
// validated.
func (b Batch) appendBinary(dst []byte) []byte {
	dst = append(dst, binMagic, binVersion)
	var w wire.BitWriter
	w.Reset(dst)
	w.WriteUvarint(uint64(b.Node))
	w.WriteUvarint(uint64(len(b.Samples)))
	dtTicks := wire.ToTick(b.Dt)
	if dtTicks < 1 {
		dtTicks = 1
	}
	w.WriteUvarint(uint64(dtTicks))
	tick0 := wire.ToTick(b.T0)
	w.WriteUvarint(wire.Zigzag(tick0))
	prevDelta := dtTicks
	prevTick := tick0
	for i := 1; i < len(b.Samples); i++ {
		ti := wire.ToTick(b.T0 + float64(i)*b.Dt)
		delta := ti - prevTick
		w.WriteDoD(delta - prevDelta)
		prevDelta = delta
		prevTick = ti
	}
	prev := math.Float64bits(b.Samples[0])
	w.WriteBits(prev, 64)
	var xs wire.XORState
	for _, s := range b.Samples[1:] {
		cur := math.Float64bits(s)
		w.WriteXOR(cur, prev, &xs)
		prev = cur
	}
	return w.Bytes()
}

// PayloadSamples reports how many power samples a batch payload
// carries without materialising the samples: only the header varints
// are read. Returns 0 when the payload is not a decodable batch.
// Delivery accounting (the chaos link's sample sizer) uses this to
// translate faulted packets into exact sample counts.
func PayloadSamples(payload []byte) int {
	var r wire.BitReader
	h, err := readBinaryHeader(payload, &r)
	if err != nil {
		return 0
	}
	return h.count
}

// PayloadTickInfo extracts the node ID and the oldest/newest sample
// wire ticks from a batch payload without materialising the samples —
// the stage-trace stamp used at payload-agnostic pipeline points
// (broker fan-out, bridge uplink). Only the header varints are read and
// the newest tick is reconstructed from the uniform grid
// (tick0 + (n-1)·dt, which is what the gateway encoded up to per-sample
// rounding). Returns ok=false for anything that is not a decodable power
// batch, so callers can feed it every routed message and stamp only
// telemetry.
func PayloadTickInfo(payload []byte) (node int, oldestTick, newestTick int64, ok bool) {
	var r wire.BitReader
	h, err := readBinaryHeader(payload, &r)
	if err != nil {
		return 0, 0, 0, false
	}
	return h.node, h.tick0, h.tick0 + int64(h.count-1)*h.dtTicks, true
}

// binHeader is the validated varint prefix of a version-1 binary frame.
type binHeader struct {
	node    int
	count   int
	dtTicks int64
	tick0   int64
}

// readBinaryHeader parses and validates a version-1 frame's header,
// leaving r positioned at the first timestamp DoD bucket. It is the
// single definition of which payloads the codec accepts — DecodeBatchInto,
// PayloadSamples (the chaos sizer) and PayloadTickInfo (the stage-trace
// stamp) must never diverge on that.
func readBinaryHeader(payload []byte, r *wire.BitReader) (binHeader, error) {
	if len(payload) == 0 {
		return binHeader{}, ErrShortPayload
	}
	if payload[0] != binMagic {
		return binHeader{}, fmt.Errorf("gateway: decode: not a batch frame (first byte %#02x)", payload[0])
	}
	if len(payload) < 2 {
		return binHeader{}, ErrShortPayload
	}
	if payload[1] != binVersion {
		return binHeader{}, fmt.Errorf("gateway: decode: unsupported wire version %d", payload[1])
	}
	data := payload[2:]
	r.Reset(data)
	node, err := r.ReadUvarint()
	if err != nil {
		return binHeader{}, fmt.Errorf("gateway: decode: %w", err)
	}
	if node > math.MaxInt32 {
		return binHeader{}, fmt.Errorf("gateway: decode: node %d out of range", node)
	}
	count, err := r.ReadUvarint()
	if err != nil {
		return binHeader{}, fmt.Errorf("gateway: decode: %w", err)
	}
	// Every sample past the first costs at least two bits (one dod bit,
	// one XOR bit), so a count the payload cannot possibly hold is
	// corrupt — reject it before trusting it for allocation sizing.
	if count == 0 || count > uint64(4*len(data))+1 {
		return binHeader{}, fmt.Errorf("gateway: decode: implausible sample count %d", count)
	}
	dtu, err := r.ReadUvarint()
	if err != nil {
		return binHeader{}, fmt.Errorf("gateway: decode: %w", err)
	}
	dtTicks := int64(dtu)
	if dtTicks <= 0 {
		return binHeader{}, fmt.Errorf("gateway: decode: non-positive dt (%d ticks)", dtTicks)
	}
	u, err := r.ReadUvarint()
	if err != nil {
		return binHeader{}, fmt.Errorf("gateway: decode: %w", err)
	}
	tick0 := wire.Unzigzag(u)
	// The grid's last tick, tick0 + (count-1)·dt, must fit in int64: the
	// unsigned headroom above tick0 is at most 2^64-1, so one division
	// bounds dt without computing the product.
	if n := count - 1; n > 0 && dtu > (uint64(math.MaxInt64)-uint64(tick0))/n {
		return binHeader{}, fmt.Errorf("gateway: decode: tick grid overflows (%d samples, dt %d ticks)", count, dtTicks)
	}
	return binHeader{node: int(node), count: int(count), dtTicks: dtTicks, tick0: tick0}, nil
}

// DecodeBatch parses a binary-frame MQTT payload back into a batch. The
// returned batch owns its samples.
func DecodeBatch(payload []byte) (Batch, error) {
	return DecodeBatchInto(payload, nil)
}

// DecodeBatchInto is DecodeBatch with a caller-supplied scratch slice:
// the decoded samples reuse scratch's backing array when it is large
// enough, so a steady-state decode loop (one scratch per worker, fed
// back each call) runs allocation-free. The returned Batch.Samples
// aliases scratch; the caller owns both and must not reuse scratch
// while the batch is live.
func DecodeBatchInto(payload []byte, scratch []float64) (Batch, error) {
	var r wire.BitReader
	h, err := readBinaryHeader(payload, &r)
	if err != nil {
		return Batch{}, err
	}
	n := h.count
	dtTicks := h.dtTicks
	tick0 := h.tick0
	// Only the last tick is kept: it fixes the mean delta below.
	span, err := r.ReadDoDSpan(n-1, dtTicks)
	if err != nil {
		return Batch{}, fmt.Errorf("gateway: decode: %w", err)
	}
	lastTick := tick0 + span
	vb, err := r.ReadBits(64)
	if err != nil {
		return Batch{}, fmt.Errorf("gateway: decode: %w", err)
	}
	// A sample whose exponent bits are all ones is an infinity or a NaN;
	// Validate names it below. Testing here spares a second pass.
	bad := vb&expBits == expBits
	out := append(scratch[:0], math.Float64frombits(vb))
	var xs wire.XORState
	for i := 1; i < n; i++ {
		vb, err = r.ReadXOR(vb, &xs)
		if err != nil {
			return Batch{}, fmt.Errorf("gateway: decode: %w", err)
		}
		bad = bad || vb&expBits == expBits
		out = append(out, math.Float64frombits(vb))
	}
	b := Batch{Node: h.node, T0: wire.ToSec(tick0), Samples: out}
	if n == 1 {
		b.Dt = wire.ToSec(dtTicks)
	} else {
		// The per-sample ticks were exact; the uniform Dt that best
		// reproduces them is the mean observed delta.
		b.Dt = (wire.ToSec(lastTick) - b.T0) / float64(n-1)
	}
	if bad || !(b.Dt > 0 && finite(b.Dt)) {
		if err := b.Validate(); err != nil {
			return Batch{}, err
		}
	}
	return b, nil
}

// expBits masks a float64's exponent field.
const expBits = 0x7ff << 52
