package wire

import "math/bits"

// refWriter and refReader are the byte-at-a-time bit stream the package
// shipped before the accumulator versions in bits.go, bodies verbatim:
// the oracle FuzzBitReader and FuzzBitWriter compare the codec against,
// so "the codec agrees with itself" is not the only thing tested.

// refWriter appends bits MSB-first into a byte slice. The zero value is
// ready to use; Reset re-arms it over a caller-owned buffer so encoders
// can reuse allocations across frames.
type refWriter struct {
	b     []byte
	avail uint // unused bits in the last byte of b
}

// Reset starts a fresh bit stream appending at len(buf) (buf may be nil,
// or carry an already-written byte-aligned prefix such as a frame
// header). Pass buf[:0] to reuse an allocation from a previous frame.
func (w *refWriter) Reset(buf []byte) {
	w.b = buf
	w.avail = 0
}

// Bytes returns the encoded stream. The slice aliases the writer's
// buffer and is valid until the next Reset/Write call.
func (w *refWriter) Bytes() []byte { return w.b }

// WriteBit appends one bit.
func (w *refWriter) WriteBit(bit uint64) {
	if w.avail == 0 {
		w.b = append(w.b, 0)
		w.avail = 8
	}
	if bit != 0 {
		w.b[len(w.b)-1] |= 1 << (w.avail - 1)
	}
	w.avail--
}

// WriteBits writes the low n bits of v, MSB-first.
func (w *refWriter) WriteBits(v uint64, n uint) {
	for n > 0 {
		if w.avail == 0 {
			w.b = append(w.b, 0)
			w.avail = 8
		}
		take := n
		if take > w.avail {
			take = w.avail
		}
		chunk := (v >> (n - take)) & ((1 << take) - 1)
		w.b[len(w.b)-1] |= byte(chunk << (w.avail - take))
		w.avail -= take
		n -= take
	}
}

// refReader consumes bits MSB-first from a byte slice. The zero value
// reads an empty stream; Reset re-arms it over a payload.
type refReader struct {
	b   []byte
	pos int  // byte index
	off uint // bits already consumed in b[pos]
}

// Reset starts reading from the beginning of b.
func (r *refReader) Reset(b []byte) {
	r.b = b
	r.pos = 0
	r.off = 0
}

// ReadBit consumes one bit.
func (r *refReader) ReadBit() (uint64, error) {
	if r.pos >= len(r.b) {
		return 0, ErrTruncated
	}
	bit := uint64(r.b[r.pos]>>(7-r.off)) & 1
	r.off++
	if r.off == 8 {
		r.off = 0
		r.pos++
	}
	return bit, nil
}

// ReadBits consumes n bits, MSB-first.
func (r *refReader) ReadBits(n uint) (uint64, error) {
	var v uint64
	for n > 0 {
		if r.pos >= len(r.b) {
			return 0, ErrTruncated
		}
		take := 8 - r.off
		if take > n {
			take = n
		}
		chunk := uint64(r.b[r.pos]>>(8-r.off-take)) & ((1 << take) - 1)
		v = v<<take | chunk
		r.off += take
		if r.off == 8 {
			r.off = 0
			r.pos++
		}
		n -= take
	}
	return v, nil
}

// WriteUvarint emits a LEB128 varint as whole bytes in the bit stream.
func (w *refWriter) WriteUvarint(u uint64) {
	for u >= 0x80 {
		w.WriteBits(u&0x7f|0x80, 8)
		u >>= 7
	}
	w.WriteBits(u, 8)
}

// ReadUvarint consumes a LEB128 varint.
func (r *refReader) ReadUvarint() (uint64, error) {
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

// WriteDoD emits one timestamp delta-of-delta.
func (w *refWriter) WriteDoD(dod int64) {
	switch {
	case dod == 0:
		w.WriteBit(0)
	case dod >= -8191 && dod <= 8192:
		w.WriteBits(0b10, 2)
		w.WriteBits(uint64(dod+8191), 14)
	case dod >= -65535 && dod <= 65536:
		w.WriteBits(0b110, 3)
		w.WriteBits(uint64(dod+65535), 17)
	case dod >= -524287 && dod <= 524288:
		w.WriteBits(0b1110, 4)
		w.WriteBits(uint64(dod+524287), 20)
	default:
		w.WriteBits(0b1111, 4)
		w.WriteBits(uint64(dod), 64)
	}
}

// ReadDoD consumes one timestamp delta-of-delta.
func (r *refReader) ReadDoD() (int64, error) {
	b, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	if b == 0 {
		return 0, nil
	}
	for _, lvl := range []struct {
		n    uint
		bias int64
	}{{14, 8191}, {17, 65535}, {20, 524287}} {
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

// WriteXOR emits one float64 bit pattern against its predecessor.
func (w *refWriter) WriteXOR(cur, prev uint64, st *XORState) {
	xor := cur ^ prev
	if xor == 0 {
		w.WriteBit(0)
		return
	}
	w.WriteBit(1)
	lead := uint(bits.LeadingZeros64(xor))
	if lead > 31 {
		lead = 31
	}
	trail := uint(bits.TrailingZeros64(xor))
	sig := 64 - lead - trail
	if st.seen && lead >= st.lead && 64-st.lead-st.sig <= trail {
		// Reuse the previous window.
		w.WriteBit(0)
		w.WriteBits(xor>>(64-st.lead-st.sig), st.sig)
		return
	}
	w.WriteBit(1)
	w.WriteBits(uint64(lead), 5)
	w.WriteBits(uint64(sig-1), 6)
	w.WriteBits(xor>>trail, sig)
	st.lead, st.sig, st.seen = lead, sig, true
}

// ReadXOR consumes one float64 bit pattern.
func (r *refReader) ReadXOR(prev uint64, st *XORState) (uint64, error) {
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
