package wire

import (
	"math"
	"math/bits"
)

// TickHz is the shared telemetry timestamp grid: 100 ns ticks. Quantising
// float64 seconds to this grid is the only loss in the compressed
// telemetry formats; at the monitors' output rates (<= 1 MHz) distinct
// samples never collide.
const TickHz = 1e7

// ToTick quantises a time in seconds to the tick grid.
func ToTick(t float64) int64 { return int64(math.Round(t * TickHz)) }

// ToSec converts a tick back to seconds.
func ToSec(tick int64) float64 { return float64(tick) / TickHz }

// Zigzag maps a signed value to an unsigned one with small magnitudes
// staying small (varint-friendly).
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// WriteUvarint emits a LEB128 varint as whole bytes in the bit stream.
func (w *BitWriter) WriteUvarint(u uint64) {
	for u >= 0x80 {
		w.WriteBits(u&0x7f|0x80, 8)
		u >>= 7
	}
	w.WriteBits(u, 8)
}

// ReadUvarint consumes a LEB128 varint.
func (r *BitReader) ReadUvarint() (uint64, error) {
	var u uint64
	var shift uint
	for {
		b, err := r.ReadBits(8)
		if err != nil {
			return 0, err
		}
		if shift >= 63 && b > 1 {
			return 0, ErrTruncated // would overflow uint64
		}
		u |= (b & 0x7f) << shift
		if b < 0x80 {
			return u, nil
		}
		shift += 7
	}
}

// The delta-of-delta buckets are the Gorilla scheme (Pelkonen et al.,
// VLDB 2015): a zero dod costs one bit, small jitters a few more, and the
// escape level carries 64 raw bits.

// dodLevels are the three biased buckets behind the prefixes 10, 110 and
// 1110; 1111 escapes to 64 raw bits.
var dodLevels = [3]struct {
	n    uint
	bias int64
}{{14, 8191}, {17, 65535}, {20, 524287}}

// WriteDoD emits one timestamp delta-of-delta, prefix and payload in one
// write.
func (w *BitWriter) WriteDoD(dod int64) {
	switch {
	case dod == 0:
		w.WriteBits(0, 1)
	case dod >= -8191 && dod <= 8192:
		w.WriteBits(0b10<<14|uint64(dod+8191), 16)
	case dod >= -65535 && dod <= 65536:
		w.WriteBits(0b110<<17|uint64(dod+65535), 20)
	case dod >= -524287 && dod <= 524288:
		w.WriteBits(0b1110<<20|uint64(dod+524287), 24)
	default:
		w.WriteBits(0b1111, 4)
		w.WriteBits(uint64(dod), 64)
	}
}

// ReadDoD consumes one timestamp delta-of-delta. With a whole biased
// bucket (at most 24 bits) in the accumulator it decodes from a peek;
// the escape level and the last bits of a stream go bit by bit.
func (r *BitReader) ReadDoD() (int64, error) {
	if r.n < 24 {
		r.refill()
	}
	if ones := uint(bits.LeadingZeros64(^r.acc)); r.n >= 24 && ones < 4 {
		if ones == 0 {
			r.skip(1)
			return 0, nil
		}
		lvl := dodLevels[ones-1]
		v := r.acc << (ones + 1) >> (64 - lvl.n)
		r.skip(ones + 1 + lvl.n)
		return int64(v) - lvl.bias, nil
	}
	b, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	if b == 0 {
		return 0, nil
	}
	for _, lvl := range dodLevels {
		b, err = r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 0 {
			v, err := r.ReadBits(lvl.n)
			if err != nil {
				return 0, err
			}
			return int64(v) - lvl.bias, nil
		}
	}
	v, err := r.ReadBits(64)
	if err != nil {
		return 0, err
	}
	return int64(v), nil
}

// ReadDoDSpan consumes n timestamp delta-of-delta buckets that follow a
// delta and returns the sum of the n deltas they make, each the one before
// plus its bucket: the span from the tick before the first bucket to the
// tick after the last. It is n ReadDoD calls, with the same sum (wrapping
// as int64 sums wrap), error and bit position, but a run of zero buckets,
// one bit each on a uniform grid, is taken a word at a time.
func (r *BitReader) ReadDoDSpan(n int, delta int64) (int64, error) {
	var span int64
	for n > 0 {
		if r.n <= 56 {
			r.refill()
		}
		if z := min(uint(bits.LeadingZeros64(r.acc)), r.n, uint(min(n, 64))); z > 0 {
			r.skip(z)
			span += int64(z) * delta
			n -= int(z)
			continue
		}
		dod, err := r.ReadDoD()
		if err != nil {
			return 0, err
		}
		delta += dod
		span += delta
		n--
	}
	return span, nil
}

// XORState carries the reusable leading-zero / significant-bit window of
// a Gorilla XOR value stream. The zero value starts a fresh stream.
type XORState struct {
	lead, sig uint
	seen      bool
}

// WriteXOR emits one float64 bit pattern against its predecessor: 0 for
// an unchanged value, 10 + window bits when the previous window still
// fits, 11 + lead(5) + sig-1(6) + window bits for a fresh one. Control
// bits and window go out in one write unless they exceed 64 bits.
func (w *BitWriter) WriteXOR(cur, prev uint64, st *XORState) {
	xor := cur ^ prev
	if xor == 0 {
		w.WriteBits(0, 1)
		return
	}
	lead := uint(bits.LeadingZeros64(xor))
	if lead > 31 {
		lead = 31
	}
	trail := uint(bits.TrailingZeros64(xor))
	sig := 64 - lead - trail
	ctl, win := uint64(0b10), xor>>(64-st.lead-st.sig)
	n := uint(2)
	if !st.seen || lead < st.lead || 64-st.lead-st.sig > trail {
		ctl, win, n = 0b11<<11|uint64(lead)<<6|uint64(sig-1), xor>>trail, 13
		st.lead, st.sig, st.seen = lead, sig, true
	}
	if n+st.sig > 64 {
		w.WriteBits(ctl, n)
		w.WriteBits(win, st.sig)
		return
	}
	w.WriteBits(ctl<<st.sig|win, n+st.sig)
}

// ReadXOR consumes one float64 bit pattern. When control bits and window
// are all in the accumulator it decodes from a peek; a window too wide
// for that, the last bits of a stream (or none) and a reuse before any
// window go through readXOR, which is where every error comes from.
func (r *BitReader) ReadXOR(prev uint64, st *XORState) (uint64, error) {
	if r.n <= 56 {
		r.refill()
	}
	if r.n > 0 && r.acc>>63 == 0 {
		r.skip(1)
		return prev, nil
	}
	lead, sig, n := st.lead, st.sig, uint(2)
	if r.acc>>62 == 0b11 {
		lead, sig, n = uint(r.acc>>57)&31, uint(r.acc>>51)&63+1, 13
	} else if !st.seen {
		n = 65 // no window to reuse: let readXOR refuse it
	}
	if n+sig > r.n {
		return r.readXOR(prev, st)
	}
	v := r.acc << n >> (64 - sig)
	r.skip(n + sig)
	st.lead, st.sig, st.seen = lead, sig, true
	return prev ^ v<<(64-lead-sig), nil
}

// readXOR is ReadXOR one field at a time.
func (r *BitReader) readXOR(prev uint64, st *XORState) (uint64, error) {
	b, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	if b == 0 {
		return prev, nil
	}
	b, err = r.ReadBit()
	if err != nil {
		return 0, err
	}
	if b == 1 {
		l, err := r.ReadBits(5)
		if err != nil {
			return 0, err
		}
		s, err := r.ReadBits(6)
		if err != nil {
			return 0, err
		}
		st.lead, st.sig, st.seen = uint(l), uint(s)+1, true
	} else if !st.seen {
		return 0, ErrTruncated
	}
	v, err := r.ReadBits(st.sig)
	if err != nil {
		return 0, err
	}
	return prev ^ v<<(64-st.lead-st.sig), nil
}
