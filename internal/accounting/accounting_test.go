package accounting

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"davide/internal/tsdb"
)

func rec(id, user, nodes int, start, end, energy float64) Record {
	return Record{JobID: id, User: user, App: "Generic", Nodes: nodes,
		StartAt: start, EndAt: end, EnergyJ: energy}
}

func TestRecordValidation(t *testing.T) {
	good := rec(1, 1, 2, 0, 100, 5000)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Record{
		rec(1, 1, 0, 0, 100, 5000),
		rec(1, 1, 1, 100, 100, 5000),
		rec(1, 1, 1, 0, 100, -1),
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d should fail", i)
		}
	}
}

func TestRecordDerived(t *testing.T) {
	r := rec(1, 1, 4, 10, 110, 400000)
	if r.Duration() != 100 {
		t.Errorf("Duration = %v", r.Duration())
	}
	if r.NodeSeconds() != 400 {
		t.Errorf("NodeSeconds = %v", r.NodeSeconds())
	}
	if r.MeanPowerW() != 4000 {
		t.Errorf("MeanPowerW = %v", r.MeanPowerW())
	}
}

func TestLedgerAddAndLookup(t *testing.T) {
	l := NewLedger()
	if err := l.Add(rec(1, 3, 2, 0, 100, 300000)); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(rec(1, 3, 2, 0, 100, 300000)); err == nil {
		t.Error("duplicate job should error")
	}
	if err := l.Add(rec(2, 3, 0, 0, 100, 1)); err == nil {
		t.Error("invalid record should error")
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d", l.Len())
	}
	r, err := l.Job(1)
	if err != nil || r.User != 3 {
		t.Errorf("Job = %+v, %v", r, err)
	}
	if _, err := l.Job(42); err == nil {
		t.Error("unknown job should error")
	}
}

func TestPerUserAggregation(t *testing.T) {
	l := NewLedger()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Add(rec(1, 1, 2, 0, 100, 200000)))  // user 1: 200 kJ, 200 node-s
	must(l.Add(rec(2, 1, 1, 0, 100, 100000)))  // user 1: +100 kJ, +100 node-s
	must(l.Add(rec(3, 2, 4, 0, 100, 1000000))) // user 2: 1 MJ, 400 node-s
	sums := l.PerUser()
	if len(sums) != 2 {
		t.Fatalf("PerUser = %v", sums)
	}
	if sums[0].User != 2 || sums[0].Jobs != 1 {
		t.Errorf("top consumer = %+v", sums[0])
	}
	if sums[1].User != 1 || sums[1].Jobs != 2 {
		t.Errorf("second = %+v", sums[1])
	}
	if math.Abs(sums[1].EnergyJ-300000) > 1e-9 {
		t.Errorf("user1 energy = %v", sums[1].EnergyJ)
	}
	if math.Abs(sums[1].EnergyPerNodeSecond-1000) > 1e-9 {
		t.Errorf("user1 intensity = %v", sums[1].EnergyPerNodeSecond)
	}
	if math.Abs(l.TotalEnergy()-1300000) > 1e-9 {
		t.Errorf("TotalEnergy = %v", l.TotalEnergy())
	}
}

func TestBill(t *testing.T) {
	l := NewLedger()
	// 2 nodes x 1000 s, 1 MJ total; idle 360 W/node -> idle share 720 kJ.
	if err := l.Add(rec(1, 1, 2, 0, 1000, 1e6)); err != nil {
		t.Fatal(err)
	}
	user, centre, err := l.Bill(1, 360, 0.25) // 0.25 currency per kWh
	if err != nil {
		t.Fatal(err)
	}
	wantUser := (1e6 - 720000) / 3.6e6 * 0.25
	wantCentre := 720000 / 3.6e6 * 0.25
	if math.Abs(user-wantUser) > 1e-9 || math.Abs(centre-wantCentre) > 1e-9 {
		t.Errorf("bill = %v/%v, want %v/%v", user, centre, wantUser, wantCentre)
	}
	// Energy below the idle floor: user pays nothing.
	if err := l.Add(rec(2, 1, 2, 0, 1000, 500000)); err != nil {
		t.Fatal(err)
	}
	user, centre, err = l.Bill(2, 360, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if user != 0 {
		t.Errorf("under-idle user cost = %v, want 0", user)
	}
	if math.Abs(centre-500000/3.6e6*0.25) > 1e-9 {
		t.Errorf("centre cost = %v", centre)
	}
	if _, _, err := l.Bill(99, 360, 0.25); err == nil {
		t.Error("unknown job should error")
	}
	if _, _, err := l.Bill(1, -1, 0.25); err == nil {
		t.Error("negative idle power should error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := NewLedger()
	if err := l.Add(rec(1, 1, 2, 0, 100, 200000)); err != nil {
		t.Fatal(err)
	}
	if err := l.Add(rec(2, 2, 4, 50, 400, 900000)); err != nil {
		t.Fatal(err)
	}
	data, err := l.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewLedger()
	if err := restored.LoadJSON(data); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 2 {
		t.Fatalf("restored Len = %d", restored.Len())
	}
	r, err := restored.Job(2)
	if err != nil || r.EnergyJ != 900000 {
		t.Errorf("restored job = %+v, %v", r, err)
	}
	if err := restored.LoadJSON([]byte("{")); err == nil {
		t.Error("bad JSON should error")
	}
	if err := restored.LoadJSON([]byte(`[{"job_id":1,"nodes":0,"start_at":0,"end_at":1}]`)); err == nil {
		t.Error("invalid record in JSON should error")
	}
}

func TestConcurrentLedger(t *testing.T) {
	l := NewLedger()
	done := make(chan error, 100)
	for i := 0; i < 100; i++ {
		i := i
		go func() {
			done <- l.Add(rec(i, i%8, 1+i%4, 0, 100, float64(1000*(i+1))))
		}()
	}
	for i := 0; i < 100; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 100 {
		t.Errorf("Len = %d", l.Len())
	}
	if len(l.PerUser()) != 8 {
		t.Errorf("users = %d", len(l.PerUser()))
	}
}

// fakeSource is a constant-power EnergySource for RecordFromSource tests.
type fakeSource struct {
	watts map[int]float64
}

func (f fakeSource) Energy(node int, t0, t1 float64) (float64, error) {
	w, ok := f.watts[node]
	if !ok {
		return 0, fmt.Errorf("fake: no node %d", node)
	}
	return w * (t1 - t0), nil
}

func TestRecordFromSource(t *testing.T) {
	src := fakeSource{watts: map[int]float64{0: 300, 1: 500}}
	r, err := RecordFromSource(src, 7, 42, "bqcd", []int{0, 1}, 10, 110)
	if err != nil {
		t.Fatal(err)
	}
	if r.EnergyJ != 800*100 || r.Nodes != 2 || r.JobID != 7 || r.User != 42 {
		t.Errorf("record = %+v", r)
	}
	if r.MeanPowerW() != 800 {
		t.Errorf("mean power = %v, want 800", r.MeanPowerW())
	}
	if _, err := RecordFromSource(src, 1, 0, "x", []int{9}, 0, 1); err == nil {
		t.Error("unknown node should propagate the source error")
	}
	if _, err := RecordFromSource(src, 1, 0, "x", nil, 0, 1); err == nil {
		t.Error("no nodes should error")
	}
	if _, err := RecordFromSource(nil, 1, 0, "x", []int{0}, 0, 1); err == nil {
		t.Error("nil source should error")
	}
	if _, err := RecordFromSource(src, 1, 0, "x", []int{0}, 5, 5); err == nil {
		t.Error("empty interval should fail validation")
	}

	l := NewLedger()
	if _, err := l.AddFromSource(src, 7, 42, "bqcd", []int{0, 1}, 10, 110); err != nil {
		t.Fatal(err)
	}
	got, err := l.Job(7)
	if err != nil || got.EnergyJ != 80000 {
		t.Errorf("ledger job = %+v, %v", got, err)
	}
	if _, err := l.AddFromSource(src, 7, 42, "bqcd", []int{0}, 0, 1); err == nil {
		t.Error("duplicate job via AddFromSource should error")
	}
}

// TestPhases asks Phases of a real store: marked intervals of one node
// (the §IV correlation of phases with measured power), multi-node sums
// that are RecordFromSource's bit for bit, and every malformed request.
func TestPhases(t *testing.T) {
	db := tsdb.New(tsdb.Options{})
	for i := 0; i < 10; i++ {
		w := 100.0
		if i >= 5 {
			w = 300
		}
		db.Append(0, float64(i), w)                // 100 W for t < 5, then 300 W
		db.Append(1, float64(i), 200+7*float64(i)) // a ramp
	}
	db.Append(2, 0, 50) // one sample: no interval to integrate

	cases := []struct {
		name   string
		src    EnergySource
		nodes  []int
		names  []string
		bounds []float64
		meanW  []float64 // nil: the request must fail
	}{
		{"lo then hi", db, []int{0}, []string{"lo", "hi"}, []float64{0, 5, 10}, []float64{100, 300}},
		{"nil source", nil, []int{0}, []string{"a"}, []float64{0, 1}, nil},
		{"no nodes", db, nil, []string{"a"}, []float64{0, 1}, nil},
		{"no bounds", db, []int{0}, nil, nil, nil},
		{"one bound", db, []int{0}, nil, []float64{1}, nil},
		{"too many names", db, []int{0}, []string{"a", "b"}, []float64{0, 1}, nil},
		{"too few names", db, []int{0}, []string{"a"}, []float64{0, 1, 2}, nil},
		{"equal bounds", db, []int{0}, []string{"a"}, []float64{5, 5}, nil},
		{"reversed bounds", db, []int{0}, []string{"a"}, []float64{3, 1}, nil},
		{"NaN bound", db, []int{0}, []string{"a", "b"}, []float64{0, math.NaN(), 10}, nil},
		{"unknown node", db, []int{42}, []string{"a"}, []float64{0, 1}, nil},
		{"unknown node after a known one", db, []int{0, 42}, []string{"a"}, []float64{0, 1}, nil},
		{"one-sample series", db, []int{2}, []string{"a"}, []float64{0, 1}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Phases(c.src, c.nodes, c.names, c.bounds)
			if c.meanW == nil {
				if err == nil {
					t.Fatalf("want an error, got %+v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.meanW) {
				t.Fatalf("got %d phases, want %d", len(got), len(c.meanW))
			}
			for i, ph := range got {
				if ph.Name != c.names[i] || ph.T0 != c.bounds[i] || ph.T1 != c.bounds[i+1] ||
					math.Abs(ph.MeanW-c.meanW[i]) > 1e-9 || math.Abs(ph.MeanW*ph.Duration()-ph.EnergyJ) > 1e-9 {
					t.Errorf("phase %d = %+v, want %q at %v W", i, ph, c.names[i], c.meanW[i])
				}
			}
		})
	}

	// The store's sentinel survives the wrapping: the query service maps
	// it to 404.
	if _, err := Phases(db, []int{0, 42}, []string{"a"}, []float64{0, 1}); !errors.Is(err, tsdb.ErrUnknownNode) {
		t.Errorf("unknown node error = %v, want tsdb.ErrUnknownNode", err)
	}

	// A job's phases and its record are one node sum: equal bit for bit,
	// whatever the node order.
	for _, nodes := range [][]int{{0, 1}, {1, 0}, {1}} {
		bounds := []float64{0.25, 3, 4.5, 7.75, 11}
		got, err := Phases(db, nodes, []string{"a", "b", "c", "d"}, bounds)
		if err != nil {
			t.Fatal(err)
		}
		for i, ph := range got {
			r, err := RecordFromSource(db, 1, 1, "x", nodes, bounds[i], bounds[i+1])
			if err != nil {
				t.Fatal(err)
			}
			if ph.EnergyJ != r.EnergyJ || ph.MeanW != r.MeanPowerW() {
				t.Errorf("nodes %v phase %d: %v J at %v W, record %v J at %v W",
					nodes, i, ph.EnergyJ, ph.MeanW, r.EnergyJ, r.MeanPowerW())
			}
		}
	}
}
