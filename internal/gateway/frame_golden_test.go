package gateway

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"davide/internal/wire"
)

// frameHashes are FNV-64a hashes of binary frames, generated at commit
// a1eff6a, before internal/wire moved from a byte-at-a-time bit stream to
// a 64-bit accumulator: "wire bytes unchanged" as a tier-1 assertion
// rather than a benchmark counter. A deliberate format change bumps
// binVersion and regenerates them (delete an entry; the failure prints
// the new value).
var frameHashes = map[string]uint64{
	"adc/n=1/grid=false":         0xc3f4c940040e4792,
	"adc/n=1/grid=true":          0x9faf72e952ff5360,
	"adc/n=2/grid=false":         0x5535249274af181a,
	"adc/n=2/grid=true":          0x57f029dc8b9591af,
	"adc/n=4096/grid=false":      0x6ca5867c05d4579f,
	"adc/n=4096/grid=true":       0xd5fea419eb7f880c,
	"adc/n=512/grid=false":       0x5766c04237fdd66e,
	"adc/n=512/grid=true":        0xa48707d12926e07e,
	"adc/n=63/grid=false":        0x65ad8cdb59425124,
	"adc/n=63/grid=true":         0xfc40b768bd18ffdc,
	"adc/n=64/grid=false":        0xa0f11fa255879ddc,
	"adc/n=64/grid=true":         0x167326d5a74932a5,
	"constant/n=1/grid=false":    0xf42f0fc5f7c94c02,
	"constant/n=1/grid=true":     0x6528fe1073448ee8,
	"constant/n=2/grid=false":    0xdfb57960507b9412,
	"constant/n=2/grid=true":     0x22dbecb978cfb85b,
	"constant/n=4096/grid=false": 0xa08f614faf45b5,
	"constant/n=4096/grid=true":  0x199d210d633c61db,
	"constant/n=512/grid=false":  0xcf895b06021c3c23,
	"constant/n=512/grid=true":   0xb099406aa3d6d167,
	"constant/n=63/grid=false":   0x652b2f3410315211,
	"constant/n=63/grid=true":    0x2b992830cfc69e,
	"constant/n=64/grid=false":   0xd27159106607355b,
	"constant/n=64/grid=true":    0x5e4a9303338f1759,
	"entropy/n=1/grid=false":     0x7d05b6549f4110d3,
	"entropy/n=1/grid=true":      0xedb36e72d546cb85,
	"entropy/n=2/grid=false":     0xedbaf1d598beceb4,
	"entropy/n=2/grid=true":      0x41dcaf26dc4a7b14,
	"entropy/n=4096/grid=false":  0x1799c60dc644aa88,
	"entropy/n=4096/grid=true":   0xfdd99e46c4e2b227,
	"entropy/n=512/grid=false":   0x744d8ed1052f0efc,
	"entropy/n=512/grid=true":    0x66634dd6b09d765,
	"entropy/n=63/grid=false":    0x4d5a9062291e6063,
	"entropy/n=63/grid=true":     0x65c73aacfbc436e4,
	"entropy/n=64/grid=false":    0x3c5804445ccdc127,
	"entropy/n=64/grid=true":     0xbf4aaeb0be837bab,
}

// goldenBatch builds the seeded batch of one shape: n samples that are
// constant, on a 12-bit ADC grid around job edges, or arbitrary finite bit
// patterns; spacing on the 100 ns tick grid or off it (per-sample rounding
// then makes the delta-of-delta stream non-zero).
func goldenBatch(n int, kind string, onGrid bool) Batch {
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(len(kind))))
	b := Batch{Node: 1 + n%45, T0: 1234.5, Dt: 1e-3, Samples: make([]float64, n)}
	if !onGrid {
		b.T0, b.Dt = 1234.56789012345, 1.0/3000
	}
	level := 360.0
	for i := range b.Samples {
		switch kind {
		case "constant":
			b.Samples[i] = 420
		case "adc":
			if rng.Intn(40) == 0 {
				level = 360 + float64(rng.Intn(1500))
			}
			b.Samples[i] = level + float64(rng.Intn(16))*0.146484375
		case "entropy":
			for {
				if b.Samples[i] = math.Float64frombits(rng.Uint64()); finite(b.Samples[i]) {
					break
				}
			}
		}
	}
	return b
}

// TestFrameBytesGolden pins the encoder's bytes per shape and has the
// frame's three consumers — the decoder, the chaos sizer and the stage
// stamp — agree on what it holds.
func TestFrameBytesGolden(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 512, 4096} {
		for _, kind := range []string{"constant", "adc", "entropy"} {
			for _, onGrid := range []bool{true, false} {
				name := fmt.Sprintf("%s/n=%d/grid=%v", kind, n, onGrid)
				b := goldenBatch(n, kind, onGrid)
				payload, err := b.AppendEncode(nil, CodecBinary)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				h := fnv.New64a()
				h.Write(payload)
				if want, ok := frameHashes[name]; !ok || h.Sum64() != want {
					t.Errorf("%s: frame of %d bytes hashes to %#x, want %#x\n\t%q: %#x,", name, len(payload), h.Sum64(), want, name, h.Sum64())
				}
				got, err := DecodeBatch(payload)
				if err != nil || got.Node != b.Node || len(got.Samples) != n {
					t.Fatalf("%s: decoded %d samples for node %d: %v", name, len(got.Samples), got.Node, err)
				}
				for i, s := range b.Samples {
					if math.Float64bits(got.Samples[i]) != math.Float64bits(s) {
						t.Fatalf("%s: sample %d = %x, want %x", name, i, math.Float64bits(got.Samples[i]), math.Float64bits(s))
					}
				}
				if c := PayloadSamples(payload); c != n {
					t.Errorf("%s: PayloadSamples = %d, want %d", name, c, n)
				}
				node, oldest, newest, ok := PayloadTickInfo(payload)
				if last := wire.ToTick(b.T0 + float64(n-1)*b.Dt); !ok || node != b.Node || oldest != wire.ToTick(b.T0) || newest < last-int64(n) || newest > last+int64(n) {
					t.Errorf("%s: PayloadTickInfo = node %d, ticks %d..%d, ok %v; want node %d, %d..%d", name, node, oldest, newest, ok, b.Node, wire.ToTick(b.T0), last)
				}
			}
		}
	}
}
