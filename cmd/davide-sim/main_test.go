package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// volatile matches the only output that differs between two runs of one
// mode: Go durations on the lines that time the run, the pooled
// buffer-reuse counters (scheduling-dependent) and the energy API's
// listening address. It is applied to both sides, so a golden file is a
// plain redirect of the command's stdout:
//
//	go run ./cmd/davide-sim -jobs 60 -seed 3 > cmd/davide-sim/testdata/batch.golden
//
// usage.golden is `davide-sim -h` (stderr; only the binary's path is
// masked), so the flag surface changes as a reviewed diff.
var volatile = regexp.MustCompile(`(?m)(wall clock +|cells in |pooled buffer reuse +|^Usage of ).*$|(serving http://)[^/]+`)

// build compiles the command into a temporary directory.
func build(t *testing.T) (bin, dir string) {
	dir = t.TempDir()
	bin = filepath.Join(dir, "davide-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin, dir
}

// TestGoldenModes runs the built binary once per mode the verify skill
// drives by hand and pins its stdout to testdata/<mode>.golden. The
// tournament mode also asks for both profiles: -tournament used to
// return before they were set up, leaving neither file.
func TestGoldenModes(t *testing.T) {
	bin, dir := build(t)
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	for _, m := range []struct {
		name   string
		args   []string
		leaves []string // files the run must write, non-empty
	}{
		{name: "batch", args: []string{"-jobs", "60", "-seed", "3"}},
		{name: "stream", args: []string{"-jobs", "60", "-seed", "3", "-stream", "10", "-stream-nodes", "8"}},
		{name: "live", args: []string{"-sched", "power", "-jobs", "24", "-seed", "3", "-stream-nodes", "12"}},
		{name: "api", args: []string{"-sched", "power", "-jobs", "24", "-seed", "3", "-stream-nodes", "12", "-api-addr", "127.0.0.1:0"}},
		{name: "scenario", args: []string{"-scenario", "dr-ramp", "-jobs", "24", "-seed", "3", "-stream-nodes", "12"}},
		{name: "racks", args: []string{"-jobs", "60", "-seed", "3", "-stream", "10", "-stream-nodes", "8", "-racks", "2"}},
		{name: "chaos", args: []string{"-jobs", "60", "-seed", "3", "-stream", "10", "-stream-nodes", "8", "-chaos", "lossy-rack"}},
		{name: "tournament", args: []string{"-tournament", "-policies", "fifo,easy", "-axes", "clean", "-cpuprofile", cpu, "-memprofile", mem},
			leaves: []string{cpu, mem}},
		{name: "usage", args: []string{"-h"}},
	} {
		t.Run(m.name, func(t *testing.T) {
			got, err := exec.Command(bin, m.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("davide-sim %v: %v\n%s", m.args, err, got)
			}
			want, err := os.ReadFile(filepath.Join("testdata", m.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, want = volatile.ReplaceAll(got, []byte("$1$2~")), volatile.ReplaceAll(want, []byte("$1$2~"))
			if !bytes.Equal(got, want) {
				t.Fatalf("output differs from testdata/%s.golden:\n got:\n%s\nwant:\n%s", m.name, got, want)
			}
			for _, p := range m.leaves {
				if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
					t.Errorf("run left no %s (err %v)", filepath.Base(p), err)
				}
			}
		})
	}
}

// TestHostileFlags: a non-finite number, an unregistered strategy,
// scenario or chaos name, a power-aware strategy at -cap 0 and a flag
// combination the run cannot honour are usage errors — exit 2 with one
// line on stderr, nothing on stdout, before anything listens.
// Unchecked, `-sched power -cap NaN` never admitted a job and streamed
// telemetry for up to 200 000 ticks, `-api-quota NaN` served every
// request a 429, and `-sched bogus -api-addr …` announced its API before
// it refused the name. Not skipped under -short.
func TestHostileFlags(t *testing.T) {
	bin, _ := build(t)
	for _, args := range [][]string{
		{"-jobs", "10", "-sched", "power", "-cap", "NaN"},
		{"-jobs", "10", "-sched", "power", "-cap", "Inf"},
		{"-jobs", "10", "-sched", "power", "-tick", "NaN"},
		{"-jobs", "10", "-cap", "NaN"},
		{"-jobs", "10", "-stream", "NaN"},
		{"-jobs", "10", "-stream", "Inf"},
		{"-scenario", "dr-ramp", "-cap", "-Inf", "-obs-addr", "127.0.0.1:0"},
		{"-sched", "power", "-api-addr", "127.0.0.1:0", "-api-quota", "NaN"},
		{"-sched", "power", "-api-addr", "127.0.0.1:0", "-api-quota", "Inf"},
		{"-jobs", "10", "-policy", "bogus"},
		{"-sched", "bogus", "-api-addr", "127.0.0.1:0"},
		{"-scenario", "dr-ramp", "-sched", "bogus"},
		{"-scenario", "bogus", "-api-addr", "127.0.0.1:0"},
		{"-jobs", "10", "-cap", "0"},
		{"-jobs", "10", "-racks", "0"},
		{"-jobs", "10", "-policies", "fifo"},
		{"-jobs", "10", "-api-addr", "127.0.0.1:0", "-obs-addr", "127.0.0.1:0"},
		{"-tournament", "-sched", "power"},
		{"-jobs", "10", "-chaos", "lossy-rack"},
		{"-jobs", "10", "-chaos", "bogus", "-stream", "10"},
		{"-jobs", "10", "-chaos", "lossy-rack,bogus", "-stream", "10"},
		{"-jobs", "10", "-chaos", "bridge-flap", "-stream", "10"},
		{"-sched", "power", "-chaos", "bridge-flap", "-racks", "2"},
		{"-scenario", "diurnal", "-chaos", "lossy-rack"},
		{"-scenario", "diurnal", "-stream", "10"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		start := time.Now()
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("davide-sim %v: %v, want exit status 2\n%s", args, err, stderr.Bytes())
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("davide-sim %v took %s, want a refusal before any work", args, d)
		}
		if stdout.Len() != 0 || bytes.Count(stderr.Bytes(), []byte("\n")) != 1 {
			t.Errorf("davide-sim %v: want nothing on stdout and one line on stderr, got\nstdout: %s\nstderr: %s",
				args, stdout.Bytes(), stderr.Bytes())
		}
	}
}
