package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"davide/internal/wire"
)

// Codec selects the batch wire format a gateway publishes.
//
// The binary codec is the versioned compressed frame below; JSON is the
// original self-describing format, kept for interoperability and
// debugging. DecodeBatch accepts either by sniffing the first payload
// byte (a binary frame starts with the magic byte 0xDA, JSON with '{'),
// so mixed-codec fleets share one broker and one aggregator.
type Codec string

// Wire codecs. The zero value selects the binary codec.
const (
	CodecBinary Codec = "binary"
	CodecJSON   Codec = "json"
)

// withDefault maps the zero value to the default codec.
func (c Codec) withDefault() Codec {
	if c == "" {
		return CodecBinary
	}
	return c
}

// Validate reports whether the codec name is known.
func (c Codec) Validate() error {
	switch c.withDefault() {
	case CodecBinary, CodecJSON:
		return nil
	}
	return fmt.Errorf("gateway: unknown codec %q", string(c))
}

// The binary batch frame (version 1):
//
//	byte 0      magic 0xDA (cannot begin a JSON document)
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
// already applies; watts are bit-exact. Unknown versions are rejected,
// never guessed at: bumping the version byte is the upgrade path.
const (
	binMagic   = 0xDA
	binVersion = 0x01
)

// ErrShortPayload reports a payload too short to carry any batch frame.
var ErrShortPayload = errors.New("gateway: decode: short payload")

// AppendEncode serialises the batch in the given codec, appending to dst
// (which may be nil). Passing a retained buffer's [:0] reslice makes
// steady-state encoding allocation-free once the buffer has grown to the
// batch size.
func (b Batch) AppendEncode(dst []byte, c Codec) ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	switch c.withDefault() {
	case CodecJSON:
		j, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		return append(dst, j...), nil
	case CodecBinary:
		return b.appendBinary(dst), nil
	}
	return nil, c.Validate()
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

// DecodeBatch parses an MQTT payload back into a batch, sniffing the
// codec from the first byte. The returned batch owns its samples.
func DecodeBatch(payload []byte) (Batch, error) {
	return DecodeBatchInto(payload, nil)
}

// DecodeBatchInto is DecodeBatch with a caller-supplied scratch slice:
// the decoded samples reuse scratch's backing array when it is large
// enough, so a steady-state decode loop (one scratch per worker, fed
// back each call) runs allocation-free on binary frames. The returned
// Batch.Samples aliases scratch; the caller owns both and must not reuse
// scratch while the batch is live.
func DecodeBatchInto(payload []byte, scratch []float64) (Batch, error) {
	if len(payload) == 0 {
		return Batch{}, ErrShortPayload
	}
	if payload[0] == binMagic {
		return decodeBinary(payload, scratch)
	}
	b := Batch{Samples: scratch[:0]}
	if err := json.Unmarshal(payload, &b); err != nil {
		return Batch{}, fmt.Errorf("gateway: decode: %w", err)
	}
	if err := b.Validate(); err != nil {
		return Batch{}, err
	}
	return b, nil
}

// PayloadSamples reports how many power samples a batch payload
// carries, in either codec, without materialising the samples — for a
// binary frame only the header varints are read. Returns 0 when the
// payload is not a decodable batch. Delivery accounting (the chaos
// link's sample sizer) uses this to translate faulted packets into
// exact sample counts.
func PayloadSamples(payload []byte) int {
	if len(payload) == 0 {
		return 0
	}
	if payload[0] == binMagic {
		var r wire.BitReader
		h, err := readBinaryHeader(payload, &r)
		if err != nil {
			return 0
		}
		return h.count
	}
	b, err := DecodeBatch(payload)
	if err != nil {
		return 0
	}
	return len(b.Samples)
}

// PayloadTickInfo extracts the node ID and the oldest/newest sample
// wire ticks from a batch payload without materialising the samples —
// the stage-trace stamp used at payload-agnostic pipeline points
// (broker fan-out, bridge uplink). For a binary frame only the header
// varints are read and the newest tick is reconstructed from the
// uniform grid (tick0 + (n-1)·dt, which is what the gateway encoded up
// to per-sample rounding); JSON payloads pay a full decode. Returns
// ok=false for anything that is not a decodable power batch, so
// callers can feed it every routed message and stamp only telemetry.
func PayloadTickInfo(payload []byte) (node int, oldestTick, newestTick int64, ok bool) {
	if len(payload) == 0 {
		return 0, 0, 0, false
	}
	if payload[0] == binMagic {
		var r wire.BitReader
		h, err := readBinaryHeader(payload, &r)
		if err != nil {
			return 0, 0, 0, false
		}
		return h.node, h.tick0, h.tick0 + int64(h.count-1)*h.dtTicks, true
	}
	b, err := DecodeBatch(payload)
	if err != nil {
		return 0, 0, 0, false
	}
	t0 := wire.ToTick(b.T0)
	return b.Node, t0, wire.ToTick(b.T0 + float64(len(b.Samples)-1)*b.Dt), true
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
// single definition of which headers the codec accepts — decodeBinary
// and PayloadSamples (the chaos sizer) must never diverge on that.
func readBinaryHeader(payload []byte, r *wire.BitReader) (binHeader, error) {
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
	return binHeader{node: int(node), count: int(count), dtTicks: dtTicks, tick0: wire.Unzigzag(u)}, nil
}

// decodeBinary parses a version-1 binary frame.
func decodeBinary(payload []byte, scratch []float64) (Batch, error) {
	var r wire.BitReader
	h, err := readBinaryHeader(payload, &r)
	if err != nil {
		return Batch{}, err
	}
	n := h.count
	dtTicks := h.dtTicks
	tick0 := h.tick0
	delta := dtTicks
	lastTick := tick0
	for i := 1; i < n; i++ {
		dod, err := r.ReadDoD()
		if err != nil {
			return Batch{}, fmt.Errorf("gateway: decode: %w", err)
		}
		delta += dod
		lastTick += delta
	}
	vb, err := r.ReadBits(64)
	if err != nil {
		return Batch{}, fmt.Errorf("gateway: decode: %w", err)
	}
	out := append(scratch[:0], math.Float64frombits(vb))
	var xs wire.XORState
	for i := 1; i < n; i++ {
		vb, err = r.ReadXOR(vb, &xs)
		if err != nil {
			return Batch{}, fmt.Errorf("gateway: decode: %w", err)
		}
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
	if err := b.Validate(); err != nil {
		return Batch{}, err
	}
	return b, nil
}
