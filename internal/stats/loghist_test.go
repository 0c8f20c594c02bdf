package stats

import (
	"math"
	"strings"
	"testing"
)

func TestLogHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1023, 10}, {1024, 11}}
	for _, tc := range cases {
		if got := LogBucketIndex(tc.v); got != tc.want {
			t.Errorf("LogBucketIndex(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if ub := LogBucketUpper(3); ub != 7 {
		t.Errorf("LogBucketUpper(3) = %v, want 7", ub)
	}
	if ub := LogBucketUpper(0); ub != 0 {
		t.Errorf("LogBucketUpper(0) = %v, want 0", ub)
	}
}

func TestLogHistogramQuantileTable(t *testing.T) {
	cases := []struct {
		name    string
		samples []int64
		q       float64
		want    float64
		tol     float64
	}{
		{"all-zero", []int64{0, 0, 0}, 0.99, 0, 0},
		{"median-in-bucket", []int64{100, 100, 100}, 0.5, 96, 8}, // geo-mid of [64,128)
		{"low-q-hits-zero", []int64{0, 0, 0, 1 << 20}, 0.5, 0, 0},
		{"negative-clamped", []int64{-5, -5, -5, 8}, 0.5, 0, 0},
		{"high-q-top-bucket", []int64{1, 1, 1 << 30}, 1, math.Ldexp(math.Sqrt2, 30), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h LogHistogram
			for _, v := range tc.samples {
				h.Add(v)
			}
			got, err := h.Quantile(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tc.want) > tc.tol {
				t.Errorf("Quantile(%v) = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
			}
		})
	}
}

func TestLogHistogramBasics(t *testing.T) {
	var h LogHistogram
	if _, err := h.Quantile(0.5); err == nil {
		t.Error("empty Quantile should error")
	}
	if got := h.String(); got != "(empty)\n" {
		t.Errorf("empty String = %q", got)
	}
	for _, v := range []int64{-1, 0, 1, 3, 3, 900} {
		h.Add(v)
	}
	if h.N() != 6 {
		t.Errorf("N = %d, want 6", h.N())
	}
	if h.Under != 1 {
		t.Errorf("Under = %d, want 1", h.Under)
	}
	if h.Sum != 907 {
		t.Errorf("Sum = %v, want 907", h.Sum)
	}
	if m, _ := h.Mean(); math.Abs(m-907.0/6) > 1e-9 {
		t.Errorf("Mean = %v", m)
	}
	if _, err := h.Quantile(-0.1); err == nil {
		t.Error("q<0 should error")
	}
	s := h.String()
	if !strings.Contains(s, "under=1") {
		t.Errorf("String missing under line:\n%s", s)
	}
	if !strings.Contains(h.Scaled(0.5), "511.5") {
		t.Errorf("Scaled(0.5) should halve bounds:\n%s", h.Scaled(0.5))
	}
}
