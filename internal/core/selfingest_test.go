package core

import (
	"testing"

	"davide/internal/obs"
)

func TestSelfIngest(t *testing.T) {
	r := obs.NewRegistry()
	c := r.CounterOf("pipeline_batches_total")
	h := r.HistogramOf("lag_seconds")
	si := NewSelfIngest(r)

	c.Add(10)
	h.Observe(4)
	if n := si.Record(30); n != 4 { // counter + p50/p99/count
		t.Errorf("Record wrote %d series, want 4", n)
	}
	c.Add(5)
	si.Record(60)
	si.Record(90)

	pts, err := si.Fetch("pipeline_batches_total", 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("health series empty")
	}
	// Sample-and-hold buckets: cumulative 10 before t=60, 15 after.
	if pts[0].T0 != 30 || pts[0].MeanW != 10 {
		t.Errorf("first bucket = %+v, want t=30 value 10", pts[0])
	}
	if last := pts[len(pts)-1]; last.MeanW != 15 {
		t.Errorf("last bucket = %+v, want value 15", last)
	}
	names := si.Series()
	if len(names) != 4 {
		t.Errorf("Series = %v, want 4 entries", names)
	}
	if pts, _ := si.Fetch("lag_seconds:count", 0, 100, 1); len(pts) == 0 {
		t.Errorf("histogram count series empty")
	}
	if pts, _ := si.Fetch("nope", 0, 100, 1); pts != nil {
		t.Errorf("unknown series should fetch nil, got %+v", pts)
	}
}
