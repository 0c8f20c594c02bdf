package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance single = %v, want 0", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 || Sum(xs) != 11 {
		t.Errorf("Min/Max/Sum = %v/%v/%v", Min(xs), Max(xs), Sum(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be ±Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	} {
		got, err := Percentile(xs, c.p)
		if err != nil || !almost(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v,%v want %v", c.p, got, err, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile(nil) should error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should error")
	}
	got, err := Percentile([]float64{42}, 90)
	if err != nil || got != 42 {
		t.Errorf("Percentile single = %v,%v", got, err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestErrorMetrics(t *testing.T) {
	pred := []float64{110, 90, 100}
	truth := []float64{100, 100, 100}
	mae, err := MAE(pred, truth)
	if err != nil || !almost(mae, 20.0/3, 1e-12) {
		t.Errorf("MAE = %v,%v", mae, err)
	}
	rmse, err := RMSE(pred, truth)
	if err != nil || !almost(rmse, math.Sqrt(200.0/3), 1e-12) {
		t.Errorf("RMSE = %v,%v", rmse, err)
	}
	mape, err := MAPE(pred, truth)
	if err != nil || !almost(mape, 20.0/3, 1e-12) {
		t.Errorf("MAPE = %v,%v", mape, err)
	}
}

func TestMAPESkipsZeroTruth(t *testing.T) {
	mape, err := MAPE([]float64{5, 110}, []float64{0, 100})
	if err != nil || !almost(mape, 10, 1e-12) {
		t.Errorf("MAPE = %v,%v want 10", mape, err)
	}
	if _, err := MAPE([]float64{1}, []float64{0}); err == nil {
		t.Error("all-zero truth should error")
	}
}

func TestMetricLengthMismatch(t *testing.T) {
	if _, err := MAE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("MAE mismatch should error")
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Error("RMSE empty should error")
	}
}

func TestGini(t *testing.T) {
	g, err := Gini([]float64{1, 1, 1, 1})
	if err != nil || !almost(g, 0, 1e-12) {
		t.Errorf("equal Gini = %v,%v want 0", g, err)
	}
	g, err = Gini([]float64{0, 0, 0, 10})
	if err != nil || !almost(g, 0.75, 1e-12) {
		t.Errorf("concentrated Gini = %v,%v want 0.75", g, err)
	}
	if _, err := Gini([]float64{-1, 2}); err == nil {
		t.Error("negative Gini input should error")
	}
	g, err = Gini([]float64{0, 0})
	if err != nil || g != 0 {
		t.Errorf("all-zero Gini = %v,%v want 0", g, err)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Correlation(xs, ys)
	if err != nil || !almost(r, 1, 1e-12) {
		t.Errorf("Correlation = %v,%v want 1", r, err)
	}
	neg := []float64{8, 6, 4, 2}
	r, err = Correlation(xs, neg)
	if err != nil || !almost(r, -1, 1e-12) {
		t.Errorf("Correlation = %v,%v want -1", r, err)
	}
	if _, err := Correlation(xs, []float64{1, 1, 1, 1}); err == nil {
		t.Error("constant input should error")
	}
}

func TestOLSRecoversPlane(t *testing.T) {
	// y = 3 + 2 x1 - 0.5 x2, noiseless.
	rng := rand.New(rand.NewSource(7))
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		x1, x2 := rng.Float64()*10, rng.Float64()*5
		X = append(X, []float64{x1, x2})
		y = append(y, 3+2*x1-0.5*x2)
	}
	m, err := FitOLS(X, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -0.5}
	for i, w := range want {
		if !almost(m.Coef[i], w, 1e-6) {
			t.Errorf("Coef[%d] = %v, want %v", i, m.Coef[i], w)
		}
	}
	p, err := m.Predict([]float64{1, 2})
	if err != nil || !almost(p, 4, 1e-6) {
		t.Errorf("Predict = %v,%v want 4", p, err)
	}
}

func TestOLSCollinearFeatures(t *testing.T) {
	// A constant feature column must not blow up thanks to the ridge term.
	X := [][]float64{{1, 5}, {2, 5}, {3, 5}, {4, 5}}
	y := []float64{2, 4, 6, 8}
	m, err := FitOLS(X, y)
	if err != nil {
		t.Fatalf("FitOLS on collinear: %v", err)
	}
	p, err := m.Predict([]float64{5, 5})
	if err != nil || !almost(p, 10, 1e-3) {
		t.Errorf("Predict = %v,%v want 10", p, err)
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := FitOLS(nil, nil); err == nil {
		t.Error("empty fit should error")
	}
	if _, err := FitOLS([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitOLS([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix should error")
	}
	m, _ := FitOLS([][]float64{{1}, {2}}, []float64{1, 2})
	if _, err := m.Predict([]float64{1, 2}); err == nil {
		t.Error("dimension mismatch in Predict should error")
	}
}

func TestKNN(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {10}}
	y := []float64{0, 10, 20, 100}
	m, err := FitKNN(2, X, y)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Predict([]float64{0.4})
	if err != nil || !almost(p, 5, 1e-12) { // neighbours 0 and 1
		t.Errorf("Predict = %v,%v want 5", p, err)
	}
	// k larger than data set size falls back to global mean.
	m2, _ := FitKNN(10, X, y)
	p, err = m2.Predict([]float64{5})
	if err != nil || !almost(p, 32.5, 1e-12) {
		t.Errorf("Predict = %v,%v want 32.5", p, err)
	}
}

func TestKNNErrors(t *testing.T) {
	if _, err := FitKNN(0, [][]float64{{1}}, []float64{1}); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := FitKNN(1, nil, nil); err == nil {
		t.Error("empty should error")
	}
	m, _ := FitKNN(1, [][]float64{{1}}, []float64{1})
	if _, err := m.Predict([]float64{1, 2}); err == nil {
		t.Error("dim mismatch should error")
	}
}

func TestNormalize(t *testing.T) {
	X := [][]float64{{1, 100}, {2, 100}, {3, 100}}
	means, stds := Normalize(X)
	if !almost(means[0], 2, 1e-12) || !almost(means[1], 100, 1e-12) {
		t.Errorf("means = %v", means)
	}
	if !almost(X[0][0], -math.Sqrt(1.5), 1e-12) {
		t.Errorf("normalised X[0][0] = %v", X[0][0])
	}
	// zero-variance column is centred but unscaled
	if X[0][1] != 0 || X[2][1] != 0 {
		t.Errorf("constant column not centred: %v", X)
	}
	q := ApplyNormalization([]float64{2, 100}, means, stds)
	if !almost(q[0], 0, 1e-12) || !almost(q[1], 0, 1e-12) {
		t.Errorf("ApplyNormalization = %v", q)
	}
}

// Property: for any data set, mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, math.Mod(x, 1e9))
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		return m >= Min(clean)-1e-6 && m <= Max(clean)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Gini is scale invariant for positive data.
func TestGiniScaleInvariantProperty(t *testing.T) {
	f := func(raw []float64, scale float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(math.Abs(x), 1e9))
			}
		}
		if len(xs) < 2 {
			return true
		}
		k := math.Mod(math.Abs(scale), 1000) + 0.1
		g1, err1 := Gini(xs)
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x * k
		}
		g2, err2 := Gini(scaled)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return almost(g1, g2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
