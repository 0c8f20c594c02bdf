package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGoldenTables pins every figure of the experiments whose tables carry
// no wall-clock column to testdata/golden.md, byte for byte. E6 (broker
// wall ms), E11 (kernel GFlops) and E15 (sched ms) time the machine they
// run on and stay out. A deliberate change regenerates the file with
//
//	for e in E1 E2 E3 E4 E5 E7 E8 E9 E10 E12 E13 E14; do go run ./cmd/expgen -only $e; done > cmd/expgen/testdata/golden.md
func TestGoldenTables(t *testing.T) {
	wallClock := map[string]bool{"E6": true, "E11": true, "E15": true}
	var got bytes.Buffer
	for _, e := range exps {
		if wallClock[e.id] {
			continue
		}
		tab, err := e.fn()
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		if err := tab.WriteMarkdown(&got); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/golden.md")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d differs from testdata/golden.md:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("rendered %d lines, testdata/golden.md has %d", len(gl), len(wl))
}
