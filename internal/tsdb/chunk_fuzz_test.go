package tsdb

import (
	"math"
	"testing"
)

// FuzzDecodeChunk feeds decodeChunk arbitrary bytes and sample counts. A
// chunk is written by this process, but it is read back long after and a
// retention or persistence bug must surface as an error, not a hang: the
// decoder may not panic, may not call back more than count times or more
// often than the bytes can hold samples (every sample costs at least two
// bits, so a huge count over a short chunk ends in ErrTruncated rather
// than a spin), must stop the moment fn says so, and whatever it decodes
// in full must survive an encodeChunk round trip bit for bit.
func FuzzDecodeChunk(f *testing.F) {
	for _, seed := range []struct {
		ticks []int64
		watts []float64
	}{
		{[]int64{0}, []float64{360}},
		{[]int64{-5, 7}, []float64{0, math.Inf(1)}},
		{[]int64{0, 200000, 400000, 600000, 800000}, []float64{420, 420, 420, 420, 420}},
		{[]int64{1e9, 1e9 + 200000, 1e9 + 400003, 1e9 + 599998, 1e9 + 2e7}, []float64{360, 1890, 1890.5, 360, -1}},
	} {
		data := encodeChunk(seed.ticks, seed.watts)
		f.Add(data, len(seed.ticks), uint8(0))
		f.Add(data, len(seed.ticks)+3, uint8(0))   // asks for more than was written
		f.Add(data[:len(data)/2], 1<<30, uint8(0)) // truncated, absurd count
		f.Add(data, len(seed.ticks), uint8(2))     // reader stops early
	}
	f.Add([]byte{}, 4, uint8(0))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, 2, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, count int, stop uint8) {
		var ticks []int64
		var watts []float64
		err := decodeChunk(data, count, func(tick int64, w float64) bool {
			ticks = append(ticks, tick)
			watts = append(watts, w)
			return stop == 0 || len(ticks) < int(stop)
		})
		n, want := len(ticks), max(count, 0)
		if stop != 0 {
			want = min(want, int(stop))
		}
		if n > want || n > 4*len(data) {
			t.Fatalf("%d callbacks for count %d, stop %d over %d bytes", n, count, stop, len(data))
		}
		if err != nil || n == 0 {
			return
		}
		if n != want {
			t.Fatalf("nil error but %d of %d samples (count %d, stop %d)", n, want, count, stop)
		}
		i := 0
		if err := decodeChunk(encodeChunk(ticks, watts), n, func(tick int64, w float64) bool {
			if tick != ticks[i] || math.Float64bits(w) != math.Float64bits(watts[i]) {
				t.Fatalf("round trip sample %d: (%d, %x), want (%d, %x)",
					i, tick, math.Float64bits(w), ticks[i], math.Float64bits(watts[i]))
			}
			i++
			return true
		}); err != nil || i != n {
			t.Fatalf("round trip decoded %d of %d samples: %v", i, n, err)
		}
	})
}
