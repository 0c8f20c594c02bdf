package sensor

import (
	"math"
	"math/bits"
)

// A level group is a group of n ≥ 2 conversions that all see one power
// level. The sum S of its n codes has an exact discrete distribution:
// the n-fold convolution of one conversion's code pmf. SampleDecimated
// draws S from it with one uniform instead of converting n times.

// levelTables is how many level tables an ADC keeps. The plant's
// signals hold a level for many groups (a node-tick, a square-wave
// half period), so a handful serves nearly every group.
const levelTables = 4

// maxTableSpan bounds n·2W, the support of S before trimming, where W
// is the half-width of one conversion's pmf. A group whose table would
// be wider takes the per-conversion path: building the table costs the
// square of its width.
const maxTableSpan = 1 << 13

// trimMass is the probability below which the ends of a convolved pmf
// are cut.
const trimMass = 1e-30

// levelKey is what a table depends on: the level and n, and the ADC
// fields that set one conversion's pmf.
type levelKey struct {
	level, noise, fullScale uint64 // float64 bits
	bits, n                 int
}

// levelTable is the distribution of S for one key: S = lo + i with
// probability cdf[i] − cdf[i−1]. cdf never decreases and ends at 1.
// guide indexes it (Chen & Asau's guide table): its length G is the
// least power of two ≥ len(cdf), and guide[k] is the smallest i with
// cdf[i] > k/G.
type levelTable struct {
	key   levelKey
	lo    int
	cdf   []float64
	guide []int32
}

// draw returns one S for one uniform u in [0, 1): lo + search(u).
func (t *levelTable) draw(g *noise) int { return t.lo + t.search(g.float64()) }

// search returns the smallest i with cdf[i] > u, for u in [0, 1): the
// index a binary search returns, bit for bit. u·G and k/G are exact, G
// being a power of two, so k = ⌊u·G⌋ has k/G ≤ u and every i with
// cdf[i] > u is at or past guide[k]; the scan from there ends at the
// first, at the latest at cdf's last entry, 1.
func (t *levelTable) search(u float64) int {
	i := int(t.guide[int(u*float64(len(t.guide)))])
	for t.cdf[i] <= u {
		i++
	}
	return i
}

// guideFor returns levelTable's guide for cdf, which ends at 1.
func guideFor(cdf []float64) []int32 {
	guide := make([]int32, 1<<bits.Len(uint(len(cdf)-1)))
	g, i := float64(len(guide)), 0
	for k := range guide {
		for cdf[i] <= float64(k)/g {
			i++
		}
		guide[k] = int32(i)
	}
	return guide
}

// tableFits reports whether a group of n conversions may take a level
// table: always at NoiseLSB 0 (the table is one point), otherwise when
// its span is at most maxTableSpan.
func (a *ADC) tableFits(n int) bool {
	return a.NoiseLSB == 0 || float64(n)*2*halfWidth(a.NoiseLSB) <= maxTableSpan
}

// halfWidth is W = ⌈13σ⌉ + 1, in codes: one conversion's pmf covers the
// codes within W of level/lsb.
func halfWidth(sigma float64) float64 { return math.Ceil(13*sigma) + 1 }

// levelTable returns the table of S for n conversions at level, from
// the cache or built into its oldest slot.
func (a *ADC) levelTable(level float64, n int) *levelTable {
	k := levelKey{math.Float64bits(level), math.Float64bits(a.NoiseLSB), math.Float64bits(a.FullScale), a.Bits, n}
	for i := range a.tables {
		if a.tables[i].key == k {
			return &a.tables[i]
		}
	}
	t := &a.tables[a.nextTable]
	a.nextTable = (a.nextTable + 1) % levelTables
	t.key = k
	t.lo, t.cdf = a.levelCDF(level, n)
	t.guide = guideFor(t.cdf)
	return t
}

// levelCDF returns the distribution of S, the sum of the codes of n
// conversions of level, as levelTable holds it.
func (a *ADC) levelCDF(level float64, n int) (lo int, cdf []float64) {
	lo, pmf := a.codePMF(level)
	sum, sumLo := []float64{1}, 0
	for k := n; ; k >>= 1 { // n-fold by repeated squaring
		if k&1 == 1 {
			sumLo, sum = trimEnds(sumLo+lo, convolve(sum, pmf))
		}
		if k == 1 {
			break
		}
		lo, pmf = trimEnds(2*lo, convolve(pmf, pmf))
	}
	cdf = make([]float64, len(sum))
	total := 0.0
	for i, p := range sum {
		total += p
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return sumLo, cdf
}

// codePMF returns one conversion's code pmf at level: code lo + i with
// probability pmf[i]. It covers the codes within W of level/lsb, clipped
// to [0, 2^Bits]; its lowest bin takes all the mass below it and its
// highest all the mass above, so the bins at code 0 and 2^Bits carry the
// clamped mass. At NoiseLSB 0 it is one point, at a noiseless
// conversion's code; so it is where the level lies W or more codes outside the
// range, whose other bins would hold less than 1e-38.
func (a *ADC) codePMF(level float64) (lo int, pmf []float64) {
	lsb, sigma := a.LSB(), a.NoiseLSB
	top := float64(uint64(1) << a.Bits)
	mu, w := level/lsb, halfWidth(sigma)
	switch {
	case sigma == 0:
		return int(a.code(level, lsb)), []float64{1}
	case mu <= -w:
		return 0, []float64{1}
	case mu >= top+w:
		return int(top), []float64{1}
	}
	c0 := min(max(math.Round(mu), 0), top)
	clo, chi := max(c0-w, 0), min(c0+w, top)
	pmf = make([]float64, int(chi-clo)+1)
	for i := range pmf {
		c := clo + float64(i)
		x, y := (c-0.5-mu)/sigma, (c+0.5-mu)/sigma
		if c == clo {
			x = math.Inf(-1)
		}
		if c == chi {
			y = math.Inf(1)
		}
		pmf[i] = normalMass(x, y)
	}
	return int(clo), pmf
}

// normalMass is P(x ≤ Z < y) for a standard normal Z, from the tail
// each bound lies in, so that a bin far from the mean is not the
// difference of two numbers near 1.
func normalMass(x, y float64) float64 {
	switch {
	case x >= 0:
		return upperTail(x) - upperTail(y)
	case y <= 0:
		return upperTail(-y) - upperTail(-x)
	default:
		return 1 - upperTail(y) - upperTail(-x)
	}
}

// upperTail is P(Z > x).
func upperTail(x float64) float64 { return math.Erfc(x/math.Sqrt2) / 2 }

// convolve returns the pmf of the sum of two independent variables with
// pmfs p and q.
func convolve(p, q []float64) []float64 {
	r := make([]float64, len(p)+len(q)-1)
	for i, x := range p {
		s := r[i : i+len(q)]
		for j, y := range q {
			s[j] += x * y
		}
	}
	return r
}

// trimEnds cuts the entries below trimMass off both ends of the pmf p,
// whose first entry is at lo, and returns the new lo with what is left.
func trimEnds(lo int, p []float64) (int, []float64) {
	for len(p) > 1 && p[0] < trimMass {
		p, lo = p[1:], lo+1
	}
	for len(p) > 1 && p[len(p)-1] < trimMass {
		p = p[:len(p)-1]
	}
	return lo, p
}
