package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b overlaps a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "spills past parent", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100): 50 of the parent's 100.
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %d, want %d", id, self[id], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id)
	if id != 0 || tr.add("y", 0, 0, time.Now(), time.Now()) != 0 {
		t.Error("nil tracer handed out a span ID")
	}
	if kept, dropped := tr.count(); kept != 0 || dropped != 0 {
		t.Errorf("nil tracer counts %d/%d", kept, dropped)
	}
}

func TestTracerParentsBoundAndFile(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 7)
	child := tr.begin("layer", root, 7)
	tr.end(child)
	tr.end(root)
	if root != 1 || child != 2 {
		t.Fatalf("span IDs %d, %d, want 1, 2", root, child)
	}
	for range maxSpans + 5 {
		tr.end(tr.begin("fill", 0, 0))
	}
	kept, dropped := tr.count()
	if kept != maxSpans || dropped != 7 {
		t.Errorf("kept %d dropped %d, want %d and 7", kept, dropped, maxSpans)
	}

	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := tr.write(path, provenance{Workload: "w", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != maxSpans || doc.Dropped != 7 || doc.Provenance.Seed != 3 {
		t.Errorf("trace file: %d spans, %d dropped, seed %d", len(doc.Spans), doc.Dropped, doc.Provenance.Seed)
	}
	s := doc.Spans[1]
	if s.Name != "layer" || s.Parent != 1 || s.Ref != 7 || s.End < s.Start {
		t.Errorf("child span round-tripped as %+v", s)
	}
}
