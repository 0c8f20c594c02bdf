package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// bitAt returns bit i of b, MSB-first — read without the code under test.
func bitAt(b []byte, i int) byte { return b[i/8] >> (7 - uint(i%8)) & 1 }

// FuzzBitReader drives the four bit-level readers over arbitrary bytes,
// in an order the fuzzer also picks (ops: low two bits select the reader,
// the rest the width of a ReadBits). Every read either fails with
// ErrTruncated or consumes at least one bit, never runs past the input,
// and returns a value the matching writer turns back into something the
// reader decodes to the same value. ReadBits is a bijection, so there the
// rewritten bits must be the very bits consumed. A varint or a delta also
// has encodings its writer would not choose (overlong, or a small delta in
// a wide bucket): the rewrite is never longer than what was read, and
// identical to it when as long. An XOR value has no such canonical form —
// the reader takes a fresh window where the writer would reuse the old
// one, at any relative cost — so there only the value must survive.
//
// A DoD op with a non-zero width reads that many buckets with
// ReadDoDSpan, starting from a delta taken from the last XOR value and the
// width, and is held to as many ReadDoD calls of the reference.
//
// Every op is also replayed on refReader, the byte-at-a-time reader the
// package used to ship: value, error-or-not, bits consumed (after a
// failure too) and window state must be equal on every input.
//
// testdata/fuzz/FuzzBitReader holds the hand-made corner cases, one per
// file, named for what they are.
func FuzzBitReader(f *testing.F) {
	var w BitWriter
	w.WriteBits(0x2A, 7)
	w.WriteUvarint(300)
	w.WriteDoD(0)
	w.WriteDoD(-70000)
	w.WriteDoD(1 << 40)
	var ws XORState
	w.WriteXOR(0x4076800000000000, 0, &ws)
	w.WriteXOR(0x4076800000000000, 0x4076800000000000, &ws)
	w.WriteXOR(0x4076900000000000, 0x4076800000000000, &ws)
	f.Add(w.Bytes(), []byte{6 << 2, 1, 2, 2, 2, 3, 3, 3})
	// Zero buckets across a word, a jitter between, and a span that runs
	// out of input inside its zero run.
	var z BitWriter
	for k := 0; k < 150; k++ {
		if k == 70 {
			z.WriteDoD(-3)
		}
		z.WriteDoD(0)
	}
	f.Add(z.Bytes(), []byte{3 << 2, 63<<2 | 2, 63<<2 | 2, 63<<2 | 2})
	addReaderSeeds(f)
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		var r BitReader
		r.Reset(data)
		var ref refReader
		ref.Reset(data)
		var st, refSt XORState
		var prev uint64
		for _, op := range ops {
			start := r.bitPos()
			st0, prev0 := st, prev
			var re BitWriter // the value, rewritten by the matching writer
			var back BitReader
			var got, again uint64
			var err, rerr error
			kind := op & 3
			switch kind {
			case 0:
				n := uint(op>>2) + 1
				if got, err = r.ReadBits(n); err == nil {
					re.WriteBits(got, n)
					back.Reset(re.Bytes())
					again, rerr = back.ReadBits(n)
				}
			case 1:
				if got, err = r.ReadUvarint(); err == nil {
					re.WriteUvarint(got)
					back.Reset(re.Bytes())
					again, rerr = back.ReadUvarint()
				}
			case 2:
				if m := int(op >> 2); m > 0 {
					// m buckets at once: held below to m ReadDoD calls.
					var span int64
					span, err = r.ReadDoDSpan(m, int64(prev)+int64(m))
					got = uint64(span)
					break
				}
				var d, d2 int64
				if d, err = r.ReadDoD(); err == nil {
					re.WriteDoD(d)
					back.Reset(re.Bytes())
					d2, rerr = back.ReadDoD()
					got, again = uint64(d), uint64(d2)
				}
			case 3:
				if got, err = r.ReadXOR(prev, &st); err == nil {
					wst, rst := st0, st0
					re.WriteXOR(got, prev, &wst)
					back.Reset(re.Bytes())
					again, rerr = back.ReadXOR(prev, &rst)
					prev = got
				}
			}
			var want uint64
			var werr error
			switch kind {
			case 0:
				want, werr = ref.ReadBits(uint(op>>2) + 1)
			case 1:
				want, werr = ref.ReadUvarint()
			case 2:
				var d int64
				if m := int(op >> 2); m > 0 {
					delta, span := int64(prev)+int64(m), int64(0)
					for k := 0; k < m && werr == nil; k++ {
						d, werr = ref.ReadDoD()
						delta += d
						span += delta
					}
					if werr == nil {
						want = uint64(span)
					}
					break
				}
				d, werr = ref.ReadDoD()
				want = uint64(d)
			case 3:
				want, werr = ref.ReadXOR(prev0, &refSt)
			}
			if refEnd := ref.pos*8 + int(ref.off); got != want || (err == nil) != (werr == nil) || r.bitPos() != refEnd || st != refSt {
				t.Fatalf("op %#x at bit %d: got %#x (%v) ending at bit %d, window %+v; reference %#x (%v) at bit %d, window %+v",
					op, start, got, err, r.bitPos(), st, want, werr, refEnd, refSt)
			}
			if err != nil {
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("op %#x at bit %d: error %v is not ErrTruncated", op, start, err)
				}
				return
			}
			end := r.bitPos()
			if end <= start || end > 8*len(data) {
				t.Fatalf("op %#x: reader moved from bit %d to %d of %d", op, start, end, 8*len(data))
			}
			if kind == 2 && op>>2 > 0 {
				continue // a span has no one value to rewrite
			}
			if rerr != nil || again != got {
				t.Fatalf("op %#x at bit %d: read %#x, rewrite reads back %#x (%v)", op, start, got, again, rerr)
			}
			if kind == 3 {
				continue
			}
			wrote := back.bitPos()
			if wrote > end-start || kind == 0 && wrote != end-start {
				t.Fatalf("op %#x at bit %d: consumed %d bits, writer needs %d", op, start, end-start, wrote)
			}
			if wrote < end-start {
				continue
			}
			for i := 0; i < wrote; i++ {
				if bitAt(re.Bytes(), i) != bitAt(data, start+i) {
					t.Fatalf("op %#x at bit %d: rewrite of %#x differs from the input at bit %d", op, start, got, i)
				}
			}
		}
	})
}

// addReaderSeeds adds the shapes the accumulator's edges depend on,
// written by refWriter so the inputs owe nothing to the code under test:
// inputs of 0 to 17 bytes (the bytewise tail of refill and both sides of
// its 8-byte load), a 57-bit and a 64-bit read at every bit offset 0..7
// (a read that straddles two loads), and a fresh XOR window of every
// width 1..64 (peeked up to 51 bits wide, field by field beyond).
func addReaderSeeds(f *testing.F) {
	for n := 0; n <= 17; n++ {
		data := bytes.Repeat([]byte{0xA5}, n)
		f.Add(data, []byte{3 << 2, 1, 2, 3, 63 << 2, 2, 3})
	}
	for off := uint(0); off < 8; off++ {
		for _, n := range []uint{57, 64} {
			var w refWriter
			w.WriteBits(0, off)
			w.WriteBits(0xDEADBEEFCAFEF00D, n)
			w.WriteBits(0xDEADBEEFCAFEF00D, n)
			ops := []byte{byte(n-1) << 2, byte(n-1) << 2}
			if off > 0 {
				ops = append([]byte{byte(off-1) << 2}, ops...)
			}
			f.Add(w.Bytes(), ops)
		}
	}
	for sig := uint(1); sig <= 64; sig++ {
		var w refWriter
		var st XORState
		x := uint64(1)<<63 | 1<<(64-sig) // a window sig bits wide from bit 63 down
		w.WriteXOR(x, 0, &st)
		w.WriteXOR(x^1<<63, x, &st) // fits the same window: reused
		f.Add(w.Bytes(), []byte{3, 3, 3})
	}
}

// FuzzBitWriter drives BitWriter and refWriter, the byte-at-a-time writer
// the package used to ship, through one fuzzer-chosen sequence of writes
// and requires the same bytes from both, after a Reset over a prefix of 0,
// 2 and 9 bytes (none, the gateway's magic and version, and one that
// leaves the first accumulator word unaligned with the slice). An op is a
// kind byte followed by the operands it names: a width and a value for
// WriteBits, a value for WriteUvarint, a bucket and a value for WriteDoD
// (all five buckets), and for WriteXOR a leading-zero count, a
// trailing-zero count and a pattern, so that zero XORs, reused windows,
// fresh windows of every width and the two-write case beyond 64 bits are
// all reachable. Kind 4 calls Bytes mid-stream, which must disturb
// nothing.
func FuzzBitWriter(f *testing.F) {
	val := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	for off := byte(0); off < 8; off++ {
		for _, n := range []byte{57, 64} {
			ops := append([]byte{0, off + 63}, val(0)...) // off bits (64 when off is 0)
			ops = append(append(ops, 0, n-1), val(0xDEADBEEFCAFEF00D)...)
			f.Add(append(append(ops, 4, 0, n-1), val(0xDEADBEEFCAFEF00D)...))
		}
	}
	for sig := byte(1); sig <= 64; sig++ {
		fresh := append([]byte{3, 0x40, 0x40 | (64 - sig)}, val(0)...) // top and bottom bit of the window forced
		f.Add(append(append(fresh, fresh...), 3, 0x40, 64-sig, 0, 0, 0, 0, 0, 0, 0, 0))
	}
	for b := byte(0); b < 5; b++ {
		f.Add(append(append([]byte{2, b}, val(0x123456789ABCDEF0)...), 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, prefix := range []int{0, 2, 9} {
			var w BitWriter
			var ref refWriter
			w.Reset(bytes.Repeat([]byte{0xDA}, prefix))
			ref.Reset(bytes.Repeat([]byte{0xDA}, prefix))
			var st, refSt XORState
			var prev uint64
			in := ops
			next := func() byte {
				if len(in) == 0 {
					return 0
				}
				b := in[0]
				in = in[1:]
				return b
			}
			next64 := func() (v uint64) {
				for i := 0; i < 8; i++ {
					v = v<<8 | uint64(next())
				}
				return v
			}
			for len(in) > 0 {
				switch kind := next() % 5; kind {
				case 0:
					n := uint(next())%64 + 1
					v := next64()
					w.WriteBits(v, n)
					ref.WriteBits(v, n)
				case 1:
					v := next64()
					w.WriteUvarint(v)
					ref.WriteUvarint(v)
				case 2:
					span := [5]uint64{1, 1 << 14, 1 << 17, 1 << 20, 0}[next()%5]
					d := int64(next64())
					if span > 0 {
						d = int64(uint64(d)%span) - int64(span/2) // zero, or inside (and just outside) the bucket
					}
					w.WriteDoD(d)
					ref.WriteDoD(d)
				case 3:
					lz, tz := next(), next()
					x := next64() >> (lz & 63)
					if lz&0x40 != 0 {
						x |= 1 << 63 >> (lz & 63)
					}
					x = x >> (tz & 63) << (tz & 63)
					if tz&0x40 != 0 && tz&63+lz&63 < 64 {
						x |= 1 << (tz & 63)
					}
					w.WriteXOR(prev^x, prev, &st)
					ref.WriteXOR(prev^x, prev, &refSt)
					prev ^= x
					if st != refSt {
						t.Fatalf("prefix %d: window %+v after xor %#x, reference %+v", prefix, st, x, refSt)
					}
				case 4:
					if !bytes.Equal(w.Bytes(), ref.Bytes()) {
						t.Fatalf("prefix %d: mid-stream %x, reference %x", prefix, w.Bytes(), ref.Bytes())
					}
				}
			}
			if !bytes.Equal(w.Bytes(), ref.Bytes()) {
				t.Fatalf("prefix %d: wrote %x, reference %x", prefix, w.Bytes(), ref.Bytes())
			}
		}
	})
}
