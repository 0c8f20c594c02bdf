package tsdb

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// The hashes in this file are FNV-64a, generated at commit a1eff6a —
// before internal/wire moved to a 64-bit accumulator and addRect gained
// its one-bucket fast path — so "chunk bytes and window answers keep
// their bits" is asserted against the old code and not only against a
// reference written beside the new. A deliberate change of format or
// arithmetic regenerates them (empty an entry; the failure prints the new
// value).

func hashFloats(h hash.Hash64, fs ...float64) {
	for _, f := range fs {
		h.Write(binary.BigEndian.AppendUint64(nil, math.Float64bits(f)))
	}
}

var chunkHashes = map[string]uint64{
	"adc/n=1/uniform=false":         0x79e771ed1fa0cd92,
	"adc/n=1/uniform=true":          0x9f84b4851976d08e,
	"adc/n=2/uniform=false":         0x6d98b1feb1b6e9d4,
	"adc/n=2/uniform=true":          0x3b280f26db4ae983,
	"adc/n=4096/uniform=false":      0xbdf0b21b69e21aa0,
	"adc/n=4096/uniform=true":       0xd527831aa06005d9,
	"adc/n=512/uniform=false":       0xfde640d7834fcbd1,
	"adc/n=512/uniform=true":        0x471fe6b73590040c,
	"adc/n=63/uniform=false":        0x7286d17205fd5e12,
	"adc/n=63/uniform=true":         0xfb49a2bc68f1985e,
	"adc/n=64/uniform=false":        0x2c3afcd965b22497,
	"adc/n=64/uniform=true":         0x4b706a933ff52523,
	"constant/n=1/uniform=false":    0x1f3f7e0c168f8307,
	"constant/n=1/uniform=true":     0x9b03389e799664de,
	"constant/n=2/uniform=false":    0x14b130fe4336acd,
	"constant/n=2/uniform=true":     0x4d63ae483f3c6ab,
	"constant/n=4096/uniform=false": 0xb12d22927fdf48d1,
	"constant/n=4096/uniform=true":  0x67b339be8baa8b29,
	"constant/n=512/uniform=false":  0x29f448b55057e804,
	"constant/n=512/uniform=true":   0x9fbe7effc588cd29,
	"constant/n=63/uniform=false":   0x457242660bd12ff4,
	"constant/n=63/uniform=true":    0xe3697d6c1ffb9d69,
	"constant/n=64/uniform=false":   0xdcd1ee14c05273a7,
	"constant/n=64/uniform=true":    0xe3697d6c1ffb9d69,
	"entropy/n=1/uniform=false":     0x110be19f180ba2c3,
	"entropy/n=1/uniform=true":      0xe6a9f381a3985a07,
	"entropy/n=2/uniform=false":     0x22926e446f546fc1,
	"entropy/n=2/uniform=true":      0xc0b2aa7f07c97559,
	"entropy/n=4096/uniform=false":  0x3121212e21c55f5e,
	"entropy/n=4096/uniform=true":   0x2b1c27a1440ab7a6,
	"entropy/n=512/uniform=false":   0xbe868ec4d6f36d92,
	"entropy/n=512/uniform=true":    0x98522143e7cba5f1,
	"entropy/n=63/uniform=false":    0x81d3d805bf32409d,
	"entropy/n=63/uniform=true":     0xe9d98cd2f40b1a,
	"entropy/n=64/uniform=false":    0x9824f63d5055324b,
	"entropy/n=64/uniform=true":     0xe0a060469ae46794,
}

// TestChunkBytesGolden pins encodeChunk's bytes per shape: 1 to 4096
// samples; constant, ADC-grid and arbitrary finite values; timestamps on a
// uniform grid or jittered through every delta-of-delta bucket.
func TestChunkBytesGolden(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 512, 4096} {
		for _, kind := range []string{"constant", "adc", "entropy"} {
			for _, uniform := range []bool{true, false} {
				name := fmt.Sprintf("%s/n=%d/uniform=%v", kind, n, uniform)
				rng := rand.New(rand.NewSource(int64(n)*31 + int64(len(kind))))
				ticks, watts := make([]int64, n), make([]float64, n)
				tick, level := int64(-7e9), 360.0
				for i := range ticks {
					tick += 10000
					if !uniform {
						tick += int64(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7))))
						tick = max(tick, ticks[max(i, 1)-1]+1)
					}
					ticks[i] = tick
					switch kind {
					case "constant":
						watts[i] = 420
					case "adc":
						if rng.Intn(40) == 0 {
							level = 360 + float64(rng.Intn(1500))
						}
						watts[i] = level + float64(rng.Intn(16))*0.146484375
					case "entropy":
						for watts[i] = math.NaN(); watts[i]-watts[i] != 0; {
							watts[i] = math.Float64frombits(rng.Uint64())
						}
					}
				}
				data := encodeChunk(ticks, watts)
				h := fnv.New64a()
				h.Write(data)
				if want, ok := chunkHashes[name]; !ok || h.Sum64() != want {
					t.Errorf("%s: chunk of %d bytes hashes to %#x, want %#x\n\t%q: %#x,", name, len(data), h.Sum64(), want, name, h.Sum64())
				}
				i := 0
				if err := decodeChunk(data, n, func(tick int64, w float64) bool {
					if tick != ticks[i] || math.Float64bits(w) != math.Float64bits(watts[i]) {
						t.Fatalf("%s: sample %d = (%d, %v), want (%d, %v)", name, i, tick, w, ticks[i], watts[i])
					}
					i++
					return true
				}); err != nil || i != n {
					t.Fatalf("%s: decoded %d of %d samples: %v", name, i, n, err)
				}
			}
		}
	}
}

var windowHashes = map[int64][3]uint64{
	1: {0x872325cbbf1bf564, 0xa0398e3ea69f7ec2, 0x9fabf053c85a3cfa},
	2: {0xdc73da33a4e8764a, 0xd80ab2678f3efad2, 0xa20d67770f6f77e},
	3: {0x984e762d226ef26e, 0x71285cb2fc11935c, 0x7dfa6f89061a802e},
}

// TestWindowBitsGolden drives one series through what ingest does to it —
// 1 kS/s and 20 S/s batches, samples placed out of order inside the head,
// duplicates of the newest and of older samples, seals every 64 samples,
// retention dropping sealed chunks — and pins Window's energy and points
// at res 0, 1 and 60 over the whole span and forty seeded sub-windows.
func TestWindowBitsGolden(t *testing.T) {
	for seed, want := range windowHashes {
		rng := rand.New(rand.NewSource(seed))
		db := New(Options{ChunkSize: 64})
		start := -5.25 + float64(seed)
		t0, dt, n := start, 1e-3, 1 // the last batch: where duplicates and inserts aim
		next := start
		watt := func() float64 { return 360 + float64(rng.Intn(4096))*0.146484375 }
		for step := 0; step < 600; step++ {
			switch k := rng.Intn(12); {
			case k < 8:
				t0, dt, n = next, 1e-3, 1+rng.Intn(512)
				if k == 7 {
					dt, n = 0.05, 1+rng.Intn(40)
				}
				samples := make([]float64, n)
				for i := range samples {
					samples[i] = watt()
				}
				db.AppendBatch(0, t0, dt, samples)
				next = t0 + float64(n)*dt
			case k < 9:
				db.Append(0, t0+(float64(rng.Intn(n))+0.5)*dt, watt()) // between two samples
			case k < 10:
				db.Append(0, t0+float64(n-1)*dt, watt()) // the newest again
			case k < 11:
				db.Append(0, t0+float64(rng.Intn(n))*dt, watt()) // an older one again
			default:
				db.DropRawBefore(next - 20)
			}
		}
		if st := db.Stats(); st.Chunks < 100 || st.HeadBytes == 0 || st.Samples == db.IngestedSamples(0) {
			t.Fatalf("seed %d: store shape %+v, %d of %d samples retained", seed, st, st.Samples, db.IngestedSamples(0))
		}
		for k, res := range []float64{0, 1, 60} {
			h := fnv.New64a()
			for q := 0; q <= 40; q++ {
				w0, w1 := start-1, next+1
				if q > 0 {
					w0 = start + rng.Float64()*(next-start)
					w1 = w0 + rng.Float64()*(next-w0)
				}
				e, pts, err := db.Window(0, w0, w1, res, nil)
				hashFloats(h, e, float64(len(pts)))
				if err != nil {
					h.Write([]byte(err.Error()))
				}
				for _, p := range pts {
					hashFloats(h, p.T0, p.T1, p.MeanW, p.MaxW, p.EnergyJ)
				}
			}
			if h.Sum64() != want[k] {
				t.Errorf("seed %d res %v: windows hash to %#x, want %#x", seed, res, h.Sum64(), want[k])
			}
		}
	}
}
