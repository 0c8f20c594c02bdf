package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// volatile matches the only output that differs between two runs of one
// mode: Go durations on the lines that time the run, and the pooled
// buffer-reuse counters (scheduling-dependent). It is applied to both
// sides, so a golden file is a plain redirect of the command's stdout:
//
//	go run ./cmd/davide-sim -jobs 60 -seed 3 > cmd/davide-sim/testdata/batch.golden
var volatile = regexp.MustCompile(`(?m)(wall clock +|cells in |pooled buffer reuse +).*$`)

// TestGoldenModes runs the built binary once per mode the verify skill
// drives by hand and pins its stdout to testdata/<mode>.golden. The
// tournament mode also asks for both profiles: -tournament used to
// return before they were set up, leaving neither file.
func TestGoldenModes(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "davide-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	for _, m := range []struct {
		name   string
		args   []string
		leaves []string // files the run must write, non-empty
	}{
		{name: "batch", args: []string{"-jobs", "60", "-seed", "3"}},
		{name: "stream", args: []string{"-jobs", "60", "-seed", "3", "-stream", "10", "-stream-nodes", "8"}},
		{name: "live", args: []string{"-sched", "power", "-jobs", "24", "-seed", "3", "-stream-nodes", "12"}},
		{name: "tournament", args: []string{"-tournament", "-policies", "fifo,easy", "-axes", "clean", "-cpuprofile", cpu, "-memprofile", mem},
			leaves: []string{cpu, mem}},
	} {
		t.Run(m.name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, m.args...)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("davide-sim %v: %v\n%s", m.args, err, stderr.Bytes())
			}
			want, err := os.ReadFile(filepath.Join("testdata", m.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, want = volatile.ReplaceAll(got, []byte("$1~")), volatile.ReplaceAll(want, []byte("$1~"))
			if !bytes.Equal(got, want) {
				t.Fatalf("stdout differs from testdata/%s.golden:\n got:\n%s\nwant:\n%s", m.name, got, want)
			}
			for _, p := range m.leaves {
				if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
					t.Errorf("run left no %s (err %v)", filepath.Base(p), err)
				}
			}
		})
	}
}
