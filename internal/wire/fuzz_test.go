package wire

import (
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
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		var r BitReader
		r.Reset(data)
		var st XORState
		var prev uint64
		for _, op := range ops {
			start := r.pos*8 + int(r.off)
			st0 := st
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
			if err != nil {
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("op %#x at bit %d: error %v is not ErrTruncated", op, start, err)
				}
				return
			}
			end := r.pos*8 + int(r.off)
			if end <= start || end > 8*len(data) {
				t.Fatalf("op %#x: reader moved from bit %d to %d of %d", op, start, end, 8*len(data))
			}
			if rerr != nil || again != got {
				t.Fatalf("op %#x at bit %d: read %#x, rewrite reads back %#x (%v)", op, start, got, again, rerr)
			}
			if kind == 3 {
				continue
			}
			wrote := back.pos*8 + int(back.off)
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
