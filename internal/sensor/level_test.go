package sensor

import (
	"math"
	"sort"
	"testing"
)

// TestLevelDrawMatchesPerConversion compares the level draw with the
// per-conversion twin in distribution: 10^5 delivered samples of a
// constant level at n = 16 from each, at a mid-range level, one within
// 2 LSB of 0, one within 2 LSB of full scale and one on a half-LSB
// boundary (where rounding splits one conversion's mass evenly). The
// seeds are fixed, and so are the thresholds, chosen before the run:
//   - a two-sample chi-square over the code sums S = P·n/lsb, bins
//     pooled from the lowest S up to 20 samples, must stay below its
//     1 − 10⁻⁴ quantile (Wilson–Hilferty), so a chance failure is
//     rare and a shifted or widened table is not;
//   - the mean energy error P − level must agree within 5 standard
//     errors, and its variance within 5 %, about eight standard errors
//     of a variance ratio at 10^5 samples a side.
//
// If this fails it would indicate that the table is not the
// distribution of n converted codes: a misplaced bin edge, a lost
// clamped mass or a wrong convolution.
func TestLevelDrawMatchesPerConversion(t *testing.T) {
	const (
		n       = 16
		samples = 100_000
		rate    = 64e3
		lsb     = 3000.0 / 4096
	)
	for _, c := range []struct {
		name  string
		level float64
	}{
		{"mid-range", 1500.3},
		{"near 0", 0.9},
		{"near full scale", 3000 - 0.9},
		{"half-LSB boundary", 1000.5 * lsb},
	} {
		kernel, err := NewADC(rate, 12, 3000, 0.5, 31)
		if err != nil {
			t.Fatal(err)
		}
		twin := newTwinADC(rate, 12, 3000, 0.5, 32)
		window := samples * n / rate
		got, err := kernel.SampleDecimated(Const(c.level), 0, window, n)
		if err != nil {
			t.Fatal(err)
		}
		want := twin.SampleDecimated(Const(c.level), 0, window, n)
		if len(got) != samples || len(want) != samples {
			t.Fatalf("%s: %d and %d samples, want %d", c.name, len(got), len(want), samples)
		}
		counts := map[float64][2]int{}
		var errs [2][]float64
		for side, train := range [2][]Sample{got, want} {
			for _, s := range train {
				sum := s.P * n / lsb
				if sum != math.Round(sum) {
					t.Fatalf("%s: sample %v is no code sum (%v)", c.name, s.P, sum)
				}
				k := counts[sum]
				k[side]++
				counts[sum] = k
				errs[side] = append(errs[side], s.P-c.level)
			}
		}
		chi, df := twoSampleChiSquare(counts, 20)
		if limit := chiSquareQuantile(df, 3.719); !(chi < limit) {
			t.Errorf("%s: chi-square %.1f on %d df, limit %.1f", c.name, chi, df, limit)
		}
		mk, vk := meanVar(errs[0])
		mt, vt := meanVar(errs[1])
		if se := math.Sqrt(vk/samples + vt/samples); math.Abs(mk-mt) > 5*se {
			t.Errorf("%s: mean energy error %.5f W, twin %.5f W (standard error %.5f W)", c.name, mk, mt, se)
		}
		if r := vk / vt; !(r > 0.95 && r < 1.05) {
			t.Errorf("%s: energy error variance %.5f W², twin %.5f W² (ratio %.4f)", c.name, vk, vt, r)
		}
	}
}

// twoSampleChiSquare returns the two-sample chi-square statistic over
// the counts per value (same sample size a side) and its degrees of
// freedom, pooling bins in ascending value until each holds at least
// pool samples; a short last bin joins the one before it.
func twoSampleChiSquare(counts map[float64][2]int, pool int) (chi float64, df int) {
	keys := make([]float64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	var bins [][2]int
	var acc [2]int
	for _, k := range keys {
		acc[0] += counts[k][0]
		acc[1] += counts[k][1]
		if acc[0]+acc[1] >= pool {
			bins = append(bins, acc)
			acc = [2]int{}
		}
	}
	if acc[0]+acc[1] > 0 {
		if len(bins) == 0 {
			bins = append(bins, acc)
		} else {
			bins[len(bins)-1][0] += acc[0]
			bins[len(bins)-1][1] += acc[1]
		}
	}
	for _, b := range bins {
		d := float64(b[0] - b[1])
		chi += d * d / float64(b[0]+b[1])
	}
	return chi, len(bins) - 1
}

// chiSquareQuantile is the Wilson–Hilferty approximation to the
// chi-square quantile on df degrees of freedom at standard normal
// quantile z.
func chiSquareQuantile(df int, z float64) float64 {
	k := float64(df)
	h := 2 / (9 * k)
	return k * math.Pow(1-h+z*math.Sqrt(h), 3)
}

func meanVar(x []float64) (mean, variance float64) {
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for _, v := range x {
		variance += (v - mean) * (v - mean)
	}
	return mean, variance / float64(len(x)-1)
}

// pmfMoments returns the mean and variance of the code lo + i with
// weight w[i], over the weights' total.
func pmfMoments(lo int, w []float64) (mean, variance float64) {
	total, m := 0.0, 0.0
	for i, p := range w {
		total += p
		m += float64(i) * p
	}
	m /= total
	for i, p := range w {
		d := float64(i) - m
		variance += d * d * p
	}
	return float64(lo) + m, variance / total
}

// FuzzLevelTable holds levelCDF to the single-code pmf it convolves,
// over arbitrary level bits (NaN aside: no NaN group reaches a table),
// NoiseLSB in [0, 8], Bits in [1, 24] and n in [2, 257]: no panic; a
// CDF that never decreases and ends at 1; a mean and a variance n times
// the pmf's, to within 1e-9 relative (or 1e-9 code, code² absolute
// below one, where trimmed tails of under 1e-30 may weigh); and at
// NoiseLSB 0 one point, at n times the code of a noiseless conversion.
// It holds the table's guide too (checkGuide).
func FuzzLevelTable(f *testing.F) {
	bits := math.Float64bits
	for _, level := range []float64{1234.5, 1500.3, 0.9, 3000 - 0.9, 1000.5 * 3000 / 4096, 0, math.Copysign(0, -1), -1,
		-1e300, 1e300, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 3000, 3001} {
		for _, c := range [][3]uint{{4096, 11, 14}, {0, 11, 0}, {65535, 23, 255}, {2867, 0, 5}, {1, 23, 1}} {
			f.Add(bits(level), uint16(c[0]), uint8(c[1]), uint16(c[2]))
		}
	}
	// A half-LSB level at almost no noise: two codes of mass 1/2, so at
	// n = 2 the CDF is 1/4, 3/4, 1 and entries fall on k/G.
	f.Add(bits(1000.5*3000/4096), uint16(1), uint8(11), uint16(0))
	f.Fuzz(func(t *testing.T, levelBits uint64, noise uint16, bitsIn uint8, nIn uint16) {
		level := math.Float64frombits(levelBits)
		if math.IsNaN(level) {
			return
		}
		sigma, b, n := float64(noise)*8/math.MaxUint16, 1+int(bitsIn)%24, 2+int(nIn)%256
		a, err := NewADC(1000, b, 3000, sigma, 1)
		if err != nil {
			t.Fatal(err)
		}
		lo, cdf := a.levelCDF(level, n)
		if len(cdf) == 0 || cdf[len(cdf)-1] != 1 {
			t.Fatalf("level %v sigma %v bits %d n %d: CDF %v does not end at 1", level, sigma, b, n, cdf)
		}
		pmf := make([]float64, len(cdf))
		for i, c := range cdf {
			if i > 0 && c < cdf[i-1] {
				t.Fatalf("level %v sigma %v bits %d n %d: CDF falls at %d: %v < %v", level, sigma, b, n, i, c, cdf[i-1])
			}
			pmf[i] = c
			if i > 0 {
				pmf[i] -= cdf[i-1]
			}
		}
		if sigma == 0 {
			lsb := a.LSB()
			if want := n * int(a.code(level+0*sigma*lsb, lsb)); len(cdf) != 1 || lo != want {
				t.Fatalf("level %v bits %d n %d at NoiseLSB 0: %d points from %d, want one at %d", level, b, n, len(cdf), lo, want)
			}
		}
		checkGuide(t, cdf)
		m, v := pmfMoments(lo, pmf)
		m1, v1 := pmfMoments(a.codePMF(level))
		fn := float64(n)
		near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*max(math.Abs(want), 1) }
		if !near(m, fn*m1) || !near(v, fn*v1) {
			t.Fatalf("level %v sigma %v bits %d n %d: mean %v variance %v, want n× the code's %v and %v", level, sigma, b, n, m, v, fn*m1, fn*v1)
		}
	})
}

// checkGuide holds the guide built for cdf to its definition, and the
// indexed search to a binary search for the smallest i with cdf[i] > u,
// at u = 0, at every k/G, at both neighbours of each in [0, 1), and at
// the largest float64 below 1. The guide's length G is the least power
// of two ≥ len(cdf); its entries never decrease and stay below len(cdf).
func checkGuide(t *testing.T, cdf []float64) {
	t.Helper()
	tab := levelTable{cdf: cdf, guide: guideFor(cdf)}
	g := len(tab.guide)
	if g&(g-1) != 0 || g < len(cdf) || g > 1 && g/2 >= len(cdf) {
		t.Fatalf("guide of %d entries for a CDF of %d", g, len(cdf))
	}
	if last := int(tab.guide[g-1]); last >= len(cdf) {
		t.Fatalf("guide[%d] = %d, past the CDF's %d entries", g-1, last, len(cdf))
	}
	binary := func(u float64) int { return sort.Search(len(cdf), func(i int) bool { return cdf[i] > u }) }
	check := func(u float64) {
		if got, want := tab.search(u), binary(u); got != want {
			t.Fatalf("search(%v) = %d, binary search %d (CDF of %d, guide of %d)", u, got, want, len(cdf), g)
		}
	}
	check(0)
	check(math.Nextafter(1, 0))
	for k := range g {
		u := float64(k) / float64(g)
		if k > 0 && tab.guide[k] < tab.guide[k-1] {
			t.Fatalf("guide falls at %d: %d < %d", k, tab.guide[k], tab.guide[k-1])
		}
		if got, want := int(tab.guide[k]), binary(u); got != want {
			t.Fatalf("guide[%d] = %d, want the smallest i with cdf[i] > %v, %d", k, got, u, want)
		}
		check(u)
		check(math.Nextafter(u, 1))
		if k > 0 {
			check(math.Nextafter(u, 0))
		}
	}
}
