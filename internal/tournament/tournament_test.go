package tournament

import (
	"bytes"
	"os"
	"testing"

	"davide/internal/sched"
)

// TestCommittedCellsReproduce guards the committed tournament.json: an
// admission decision that changes anywhere in the scheduler core moves a
// cell. Every policy is re-run on the clean axis (scoring is per axis,
// so its cells are complete) and compared exactly; without -short the
// whole report is regenerated and compared byte for byte.
func TestCommittedCellsReproduce(t *testing.T) {
	data, err := os.ReadFile("../../tournament.json")
	if err != nil {
		t.Fatal(err)
	}
	committed, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Axes: []string{AxisClean}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != len(Policies()) {
		t.Fatalf("clean axis produced %d cells for %d policies", len(rep.Cells), len(Policies()))
	}
	for _, got := range rep.Cells {
		want := committed.Cell(got.Policy, got.Axis)
		if want == nil {
			t.Errorf("%s on %s: no committed cell", got.Policy, got.Axis)
		} else if got != *want {
			t.Errorf("%s on %s moved:\n got  %+v\n want %+v", got.Policy, got.Axis, got, *want)
		}
	}
	if testing.Short() {
		return
	}
	full, err := Run(Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := full.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, data) {
		t.Errorf("regenerated report (%d cells) differs from the committed tournament.json; "+
			"run davide-sim -tournament -tournament-out and diff", len(full.Cells))
	}
}

// TestEveryEntrantResolves: an entrant is a sched registry name plus
// what the tournament adds, so each must resolve to a strategy of that
// name.
func TestEveryEntrantResolves(t *testing.T) {
	for _, p := range Policies() {
		s, err := sched.Lookup(p.Name)
		if err != nil {
			t.Errorf("entrant %q: %v", p.Name, err)
			continue
		}
		if s.Name() != p.Name {
			t.Errorf("entrant %q resolves to %q", p.Name, s.Name())
		}
	}
}
