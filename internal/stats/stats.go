// Package stats is the statistics toolbox used by the D.A.V.I.D.E.
// experiments: descriptive statistics, percentiles, histograms, ordinary
// least squares regression, k-nearest-neighbour regression, error metrics
// (MAE, RMSE, MAPE) and the Gini coefficient used for fairness analysis.
//
// Everything operates on plain []float64 slices and is deterministic.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// MAE returns the mean absolute error between predictions and truth.
func MAE(pred, truth []float64) (float64, error) {
	if err := checkPair(pred, truth); err != nil {
		return 0, err
	}
	s := 0.0
	for i := range pred {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(len(pred)), nil
}

// RMSE returns the root mean squared error between predictions and truth.
func RMSE(pred, truth []float64) (float64, error) {
	if err := checkPair(pred, truth); err != nil {
		return 0, err
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred))), nil
}

// MAPE returns the mean absolute percentage error (in percent) between
// predictions and truth. Entries with truth == 0 are skipped; if all entries
// are skipped an error is returned.
func MAPE(pred, truth []float64) (float64, error) {
	if err := checkPair(pred, truth); err != nil {
		return 0, err
	}
	s, n := 0.0, 0
	for i := range pred {
		if truth[i] == 0 {
			continue
		}
		s += math.Abs((pred[i] - truth[i]) / truth[i])
		n++
	}
	if n == 0 {
		return 0, errors.New("stats: MAPE undefined, all truth values zero")
	}
	return 100 * s / float64(n), nil
}

func checkPair(a, b []float64) error {
	if len(a) == 0 {
		return ErrEmpty
	}
	if len(a) != len(b) {
		return errors.New("stats: length mismatch")
	}
	return nil
}

// Gini returns the Gini coefficient of xs (0 = perfect equality,
// approaching 1 = maximal inequality). Negative values are not supported.
func Gini(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		return 0, errors.New("stats: Gini requires non-negative values")
	}
	n := float64(len(sorted))
	var cum, weighted float64
	for i, x := range sorted {
		weighted += float64(i+1) * x
		cum += x
	}
	if cum == 0 {
		return 0, nil
	}
	return (2*weighted - (n+1)*cum) / (n * cum), nil
}

// Correlation returns the Pearson correlation coefficient between xs and ys.
func Correlation(xs, ys []float64) (float64, error) {
	if err := checkPair(xs, ys); err != nil {
		return 0, err
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: correlation undefined for constant input")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
