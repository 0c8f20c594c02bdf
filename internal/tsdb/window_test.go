package tsdb

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestWindowMatchesEnergyAtAndFetch holds Window to the pair of calls it
// replaces in the query service: the energy is EnergyAt's on bits, the
// points are Fetch's, the error is the one the pair would have reported,
// over a store with everything a window can cut — sealed chunks, an open
// head, a retention-dropped prefix, a gap of empty buckets, samples placed
// out of order — and windows that land exactly on samples, chunk starts
// and each other.
func TestWindowMatchesEnergyAtAndFetch(t *testing.T) {
	db := New(Options{ChunkSize: 16})
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 1500; i++ {
		ts := float64(i) * 0.25
		if ts >= 200 && ts < 330 {
			continue // no samples: empty 1-s buckets and an empty 60-s one
		}
		db.Append(0, ts, 360+float64(rng.Intn(4096))*3000/4096)
		if i%97 == 0 && i > 0 {
			db.Append(0, ts-0.125, 500) // placed out of order, inside the head
		}
	}
	db.Append(1, 5, 100) // one sample: raw energy is ErrShortSeries, rollups answer
	db.Append(2, 10, 100)
	db.Append(2, 5, 50) // newest sample at 10 with no gap observed after it
	st := db.Stats()
	if st.Chunks < 10 || st.HeadBytes == 0 {
		t.Fatalf("store shape: %+v", st)
	}

	check := func(node int, t0, t1, res float64) {
		t.Helper()
		wantE, errE := db.EnergyAt(node, t0, t1, res)
		wantP, errP := db.Fetch(node, t0, t1, res)
		wantErr := errE
		if wantErr == nil {
			wantErr = errP
		}
		sentinel := Point{T0: -1, MeanW: -1}
		dst := append(make([]Point, 0, 4), sentinel)
		e, pts, err := db.Window(node, t0, t1, res, dst)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("Window(%d, %v, %v, %v): err %v, want %v", node, t0, t1, res, err, wantErr)
		}
		for _, target := range []error{ErrShortSeries, ErrBadRes, ErrBadWindow, ErrUnknownNode} {
			if errors.Is(err, target) != errors.Is(wantErr, target) {
				t.Fatalf("Window(%d, %v, %v, %v): err %v, want %v", node, t0, t1, res, err, wantErr)
			}
		}
		if len(pts) == 0 || pts[0] != sentinel {
			t.Fatalf("Window(%d, %v, %v, %v): dst's own point is gone: %+v", node, t0, t1, res, pts)
		}
		if err != nil {
			if len(pts) != 1 {
				t.Fatalf("Window(%d, %v, %v, %v): %d points beside %v", node, t0, t1, res, len(pts)-1, err)
			}
			return
		}
		if math.Float64bits(e) != math.Float64bits(wantE) {
			t.Fatalf("Window(%d, %v, %v, %v): energy %v, EnergyAt %v", node, t0, t1, res, e, wantE)
		}
		pts = pts[1:]
		if len(pts) != len(wantP) {
			t.Fatalf("Window(%d, %v, %v, %v): %d points, Fetch %d", node, t0, t1, res, len(pts), len(wantP))
		}
		for i := range pts {
			if pts[i] != wantP[i] {
				t.Fatalf("Window(%d, %v, %v, %v): point %d = %+v, Fetch %+v", node, t0, t1, res, i, pts[i], wantP[i])
			}
			pts[i] = sentinel // the caller's memory, not the store's
		}
		if again, _ := db.Fetch(node, t0, t1, res); len(again) != len(wantP) || len(again) > 0 && again[0] != wantP[0] {
			t.Fatalf("Window(%d, %v, %v, %v): writing to the result changed the store", node, t0, t1, res)
		}
	}

	// edges are the windows where a walk that lists the points and one
	// that integrates could part: a window of zero width on a sample, one
	// closing exactly on a sample or on a chunk's span end, windows wholly
	// before the first sample or after the pending one, and the series of
	// one sample, whose raw listing is that sample with no error.
	edges := func() {
		t.Helper()
		if pts, err := db.Fetch(1, 0, 100, 0); err != nil || len(pts) != 1 || pts[0] != rawPoint(5, 100) {
			t.Fatalf("one-sample Fetch = %+v, %v; want its one point", pts, err)
		}
		s := db.shard(0).series[0]
		var cuts []float64
		for k := range s.chunks {
			cuts = append(cuts, toSec(s.chunks[k].tFirst), toSec(s.chunks[k].tLast), s.chunkSpanEnd(k))
		}
		cuts = append(cuts, toSec(s.headT[0]), toSec(s.pendT), s.end())
		for _, res := range []float64{0, 1, 60} {
			for _, c := range cuts {
				check(0, c, c, res)
				check(0, c-7.3, c, res)
				check(0, c-0.25, c, res)
				check(0, c, c+0.25, res)
			}
			first := s.rawStart()
			check(0, first-50, first-1, res)
			check(0, first-50, first, res)
			check(0, s.end(), s.end()+50, res)
			check(0, toSec(s.pendT)+0.1, s.end()+50, res)
			for _, node := range []int{1, 2} {
				for _, w := range [][2]float64{{5, 5}, {10, 10}, {0, 4}, {11, 20}, {0, 5}, {5, 10}} {
					check(node, w[0], w[1], res)
				}
			}
		}
	}
	edges()
	if db.DropRawBefore(60) == 0 {
		t.Fatal("retention dropped nothing")
	}
	edges()

	raw, err := db.Fetch(0, -1, 1e9, 0)
	if err != nil || len(raw) == 0 {
		t.Fatal(len(raw), err)
	}
	at := func() float64 { // a time some sample, bucket or chunk starts at
		if rng.Intn(2) == 0 {
			return raw[rng.Intn(len(raw))].T0
		}
		return float64(rng.Intn(400))
	}
	for trial := 0; trial < 3000; trial++ {
		t0 := -20 + 420*rng.Float64()
		t1 := t0 + 300*rng.Float64()*rng.Float64()
		switch trial % 4 {
		case 1:
			t0, t1 = at(), at()
			if t1 < t0 {
				t0, t1 = t1, t0
			}
		case 2:
			t1 = at()
			t0 = math.Min(t0, t1)
		case 3:
			t0 = at()
			t1 = math.Max(t0, t1)
		}
		check(0, t0, t1, []float64{0, 1, 60}[trial%3])
	}
	for _, res := range []float64{0, 1, 60, 7} {
		check(0, 300, 100, res)    // ErrBadWindow
		check(99, 0, 100, res)     // ErrUnknownNode
		check(1, 0, 100, res)      // ErrShortSeries at res 0
		check(2, 10, 20, res)      // starts on the newest sample
		check(2, 0, 10, res)       // ends on it
		check(0, -1e300, 4e9, res) // far past both ends
		check(0, 374.75, 374.75, res)
	}
}

// TestNonFiniteWindowRefused: a NaN or infinite bound at either end is
// ErrBadWindow at every entry point that takes a window. A check written
// as `t1 < t0` lets NaN through: `egmon -node 2 -t0 NaN` printed a
// 30-row table for [NaN, 60] and exited 0.
func TestNonFiniteWindowRefused(t *testing.T) {
	db := New(Options{})
	for i := 0; i < 100; i++ {
		db.Append(0, float64(i), 500)
	}
	entries := map[string]func(t0, t1 float64) error{
		"Energy":    func(t0, t1 float64) error { _, err := db.Energy(0, t0, t1); return err },
		"MeanPower": func(t0, t1 float64) error { _, err := db.MeanPower(0, t0, t1); return err },
		"Fetch":     func(t0, t1 float64) error { _, err := db.Fetch(0, t0, t1, 1); return err },
		"EnergyAt":  func(t0, t1 float64) error { _, err := db.EnergyAt(0, t0, t1, 0); return err },
		"Window":    func(t0, t1 float64) error { _, _, err := db.Window(0, t0, t1, 60, nil); return err },
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, call := range entries {
		if err := call(10, 20); err != nil {
			t.Fatalf("%s(10, 20): %v", name, err)
		}
		for _, w := range [][2]float64{
			{nan, 20}, {10, nan}, {nan, nan},
			{-inf, 20}, {10, inf}, {-inf, inf},
			{inf, inf}, {-inf, -inf}, {inf, 20}, {10, -inf},
			{20, 10},
		} {
			if err := call(w[0], w[1]); !errors.Is(err, ErrBadWindow) {
				t.Errorf("%s(%v, %v) = %v, want ErrBadWindow", name, w[0], w[1], err)
			}
		}
	}
}
