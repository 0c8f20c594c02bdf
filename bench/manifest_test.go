package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root is the benchmark's contract with
// whoever runs it; it must name exactly what this program reports.
func TestManifestMatchesProgram(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", doc.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in the manifest, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}

	metrics := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			name(m.Name)
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d is %s [%s] in the manifest, %s [%s] in the program", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q breaks the unit rule", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	metrics("end_to_end", doc.EndToEnd, endToEnd, true)
	metrics("per_layer", doc.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
	if len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(doc.EndToEnd), len(doc.PerLayer))
	}
	if len(body) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(body))
	}
}
