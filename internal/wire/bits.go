// Package wire holds the bit-level codec primitives shared by the
// telemetry plane's two compressed formats: the tsdb chunk codec (data at
// rest) and the gateway batch codec (data on the MQTT wire). Both speak
// the same dialect — MSB-first bit streams, byte-aligned LEB128 varints,
// Gorilla delta-of-delta timestamp buckets and XOR-compressed float64
// values on a common 100 ns tick grid — so the primitives live here once
// instead of being duplicated per layer.
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrTruncated reports a truncated or corrupt compressed stream.
var ErrTruncated = errors.New("wire: truncated bit stream")

// BitWriter appends bits MSB-first into a byte slice. The zero value is
// ready to use; Reset re-arms it over a caller-owned buffer so encoders
// can reuse allocations across frames. Pending bits sit left-aligned in a
// 64-bit accumulator that is appended to the slice one whole word at a
// time; Bytes adds the zero-padded remainder.
type BitWriter struct {
	b   []byte
	acc uint64 // pending bits, left-aligned; the unused low bits are zero
	n   uint   // pending bits in acc, 0..64
}

// Reset starts a fresh bit stream appending at len(buf) (buf may be nil,
// or carry an already-written byte-aligned prefix such as a frame
// header). Pass buf[:0] to reuse an allocation from a previous frame.
func (w *BitWriter) Reset(buf []byte) {
	w.b, w.acc, w.n = buf, 0, 0
}

// Bytes returns the encoded stream, its last byte zero-padded. The slice
// aliases the writer's buffer and is valid until the next Reset/Write
// call; writing may continue after it.
func (w *BitWriter) Bytes() []byte {
	var tail [8]byte
	binary.BigEndian.PutUint64(tail[:], w.acc)
	out := append(w.b, tail[:(w.n+7)/8]...)
	w.b = out[:len(w.b)]
	return out
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(bit uint64) {
	if bit != 0 {
		bit = 1
	}
	w.WriteBits(bit, 1)
}

// WriteBits writes the low n bits of v (n <= 64), MSB-first. Written to
// stay inside the compiler's inlining budget: the shift-and-or is all a
// caller pays unless the accumulator overflows.
func (w *BitWriter) WriteBits(v uint64, n uint) {
	w.acc |= v << (64 - n) >> w.n // both shifts give 0 at 64
	if w.n += n; w.n > 64 {
		w.spill(v)
	}
}

// spill appends the full accumulator and restarts it with the low
// w.n-64 bits of v, the ones that did not fit.
//
//go:noinline
func (w *BitWriter) spill(v uint64) {
	w.b = binary.BigEndian.AppendUint64(w.b, w.acc)
	w.n -= 64
	w.acc = v << (64 - w.n)
}

// BitReader consumes bits MSB-first from a byte slice. The zero value
// reads an empty stream; Reset re-arms it over a payload. Unread bits sit
// left-aligned in a 64-bit accumulator refilled eight bytes at a time
// while eight remain and bytewise after that, never from past len(b).
type BitReader struct {
	b   []byte
	pos int    // next byte of b to load
	acc uint64 // unread bits, left-aligned; bits below the top n are not valid
	n   uint   // valid bits in acc, 0..64
}

// Reset starts reading from the beginning of b.
func (r *BitReader) Reset(b []byte) {
	r.b, r.pos, r.acc, r.n = b, 0, 0, 0
}

// bitPos is the number of bits consumed so far.
func (r *BitReader) bitPos() int { return r.pos*8 - int(r.n) }

// refill tops the accumulator up to more than 56 valid bits, or to all
// that is left of the input. Whatever it leaves below the top n bits are
// the stream's own next bits, so a later refill ORs them onto themselves.
func (r *BitReader) refill() {
	if r.pos+8 <= len(r.b) {
		r.acc |= binary.BigEndian.Uint64(r.b[r.pos:]) >> r.n
		k := (64 - r.n) >> 3
		r.pos += int(k)
		r.n += k << 3
		return
	}
	for r.n <= 56 && r.pos < len(r.b) {
		r.acc |= uint64(r.b[r.pos]) << (56 - r.n)
		r.pos++
		r.n += 8
	}
}

// skip consumes n <= r.n bits.
func (r *BitReader) skip(n uint) {
	r.acc <<= n
	r.n -= n
}

// ReadBit consumes one bit.
func (r *BitReader) ReadBit() (uint64, error) {
	return r.ReadBits(1)
}

// ReadBits consumes n bits (n <= 64), MSB-first. Like every read here, a
// failed one leaves the reader at the end of its input.
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	if n > r.n {
		if r.refill(); n > r.n {
			return r.readWide(n)
		}
	}
	v := r.acc >> (64 - n) // n == 0: the shift gives 0
	r.skip(n)
	return v, nil
}

// readWide reads n bits when a refilled accumulator holds fewer: the
// input is short, or n > 57 and the read straddles two loads.
func (r *BitReader) readWide(n uint) (uint64, error) {
	if uint(len(r.b)-r.pos)*8+r.n < n {
		r.pos, r.acc, r.n = len(r.b), 0, 0
		return 0, ErrTruncated
	}
	low := n - r.n // 1..7
	v := r.acc >> (64 - r.n) << low
	r.acc, r.n = 0, 0
	r.refill()
	v |= r.acc >> (64 - low)
	r.skip(low)
	return v, nil
}
