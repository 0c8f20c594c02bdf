package sensor

import (
	"math"
	"math/rand"
	"testing"
)

// countingSource counts the outputs math/rand draws from its source, so
// the reference side can tell which path each NormFloat64 took.
type countingSource struct {
	rand.Source64
	n int
}

func (c *countingSource) Int63() int64 { c.n++; return c.Source64.Int63() }

// TestNoiseMatchesMathRand holds the replica generator to math/rand on
// bits: per seed, 2 M norm draws against rand.New(rand.NewSource(seed))
// .NormFloat64, every fourth a draw both sides discard, then the raw
// streams' next outputs. The seeds cover 0 (NewSource's substitute seed),
// negatives, a seed past int32, the monitors golden's and three of the
// benchmark's 1000 + 100_000·seed + node. Both slow paths must have been
// taken: the base strip's tail (the only source of |x| > rn) and a wedge
// rejection (a draw of three or more outputs that ended inside the
// ziggurat).
func TestNoiseMatchesMathRand(t *testing.T) {
	const draws = 2_000_000
	tail, rejected := 0, 0
	for _, seed := range []int64{0, 1, -7, 1 << 40, 20260, 1000 + 100_000*7 + 0, 1000 + 100_000*611 + 513, 1000 + 100_000*634 + 1023} {
		var g noise
		g.seed(seed)
		src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
		ref := rand.New(src)
		for d := 0; d < draws; d++ {
			before := src.n
			want := ref.NormFloat64()
			if d%4 == 3 { // a discarded draw, as SampleDecimated makes it
				if _, ok := g.normFast(); !ok {
					g.normSlow()
				}
				continue
			}
			if got := g.norm(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: norm = %v, NormFloat64 = %v", seed, d, got, want)
			}
			switch used := src.n - before; {
			case math.Abs(want) > rn:
				tail++
			case used >= 3:
				rejected++
			}
		}
		if got, want := g.uint64(), src.Uint64(); got != want {
			t.Fatalf("seed %d: next output %#x, math/rand's %#x", seed, got, want)
		}
	}
	if tail == 0 || rejected == 0 {
		t.Errorf("slow paths not covered: %d base-strip tails, %d wedge rejections", tail, rejected)
	}
}
