package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"davide/internal/accounting"
	"davide/internal/energyserve"
	"davide/internal/tsdb"
)

// volatile matches the only output that differs between two runs of one
// mode: the brokers' and the energy service's addresses, the trailing
// wall time of a summary line, and two counters that depend on
// scheduling — the bridge queue high-water column and the broker's
// received bytes (the last PUBACK may or may not have been read when the
// line prints). It is applied to both sides, so a golden file is a plain
// redirect of the command's stdout:
//
//	go run ./cmd/egmon -racks 2 -node 1 > cmd/egmon/testdata/racks.golden
//
// usage.golden is `egmon -h` (stderr; only the binary's path is masked),
// so the flag surface changes as a reviewed diff. api.golden is egmon
// -api against apiServer's store; on a diff the failure prints the masked
// output.
var volatile = regexp.MustCompile(`(?m)(listening on ).*$|(, )\S+ wall$|^(r\d\d +\d+ +\d+) +\d+$|(dropped, )\d+ B received$|^(Usage of ).*$|(service at )\S+`)

// build compiles the command into a temporary directory.
func build(t *testing.T) string {
	bin := filepath.Join(t.TempDir(), "egmon")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestGoldenModes runs the built binary once per mode the verify skill
// drives by hand and pins its stdout to testdata/<mode>.golden.
func TestGoldenModes(t *testing.T) {
	bin := build(t)
	for name, args := range map[string]string{
		"default": "",
		"racks":   "-racks 2 -node 1",
		"api":     "-api " + apiServer(t) + " -node 0 -t0 0 -t1 12 -res 1",
		"usage":   "-h",
	} {
		t.Run(name, func(t *testing.T) {
			got, err := exec.Command(bin, strings.Fields(args)...).CombinedOutput()
			if err != nil {
				t.Fatalf("egmon %s: %v\n%s", args, err, got)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, want = volatile.ReplaceAll(got, []byte("$1$2$3$4$5$6~")), volatile.ReplaceAll(want, []byte("$1$2$3$4$5$6~"))
			if !bytes.Equal(got, want) {
				t.Fatalf("output differs from testdata/%s.golden:\n got:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
	// A window no gateway can convert is a usage error (exit 2) before any
	// broker listens, not a makeslice panic inside Monitor.Observe.
	for _, w := range []string{"NaN", "Inf", "1e300"} {
		t.Run("window-"+w, func(t *testing.T) {
			out, err := exec.Command(bin, "-window", w, "-nodes", "1").CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !bytes.Contains(out, []byte("usage: egmon")) || bytes.Contains(out, []byte("listening")) {
				t.Fatalf("egmon -window %s: %v, want exit status 2 with a usage line and no broker\n%s", w, err, out)
			}
		})
	}
}

// TestNonFiniteQueryWindow: a NaN or infinite -t0/-t1 reaches the store,
// which refuses it; egmon exits non-zero with that one error line. At the
// parent the store's `t1 < t0` check let NaN through, and egmon printed
// "node00 [NaN, 60] at 1 s resolution (30 rows)" and exited 0.
func TestNonFiniteQueryWindow(t *testing.T) {
	bin := build(t)
	for _, args := range []string{
		"-nodes 1 -node 0 -t0 NaN",
		"-nodes 1 -node 0 -t1 Inf",
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(args)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("egmon %s: %v, want a non-zero exit", args, err)
		}
		if bytes.Count(stderr.Bytes(), []byte("\n")) != 1 || !bytes.Contains(stderr.Bytes(), []byte("window")) {
			t.Errorf("egmon %s: want one window error line on stderr, got\n%s", args, stderr.Bytes())
		}
		if bytes.Contains(stdout.Bytes(), []byte("resolution (")) {
			t.Errorf("egmon %s printed a query table:\n%s", args, stdout.Bytes())
		}
	}
}

// apiServer serves the energy query API on a loopback port over a small
// store and ledger: four nodes in two racks sampled every half second for
// a minute, and three accounted jobs of two users. It returns the
// address; the server closes with the test.
func apiServer(t *testing.T) string {
	db := tsdb.New(tsdb.Options{})
	for n := 0; n < 4; n++ {
		for i := 0; i <= 120; i++ {
			db.Append(n, float64(i)/2, 300+100*float64(n)+40*float64(i%8))
		}
	}
	led := accounting.NewLedger()
	for _, r := range []accounting.Record{
		{JobID: 1, User: 7, App: "cfd", Nodes: 2, StartAt: 0, EndAt: 40, EnergyJ: 4e4},
		{JobID: 2, User: 7, App: "md", Nodes: 1, StartAt: 10, EndAt: 60, EnergyJ: 1.5e4},
		{JobID: 3, User: 9, App: "qcd", Nodes: 1, StartAt: 5, EndAt: 55, EnergyJ: 6e4},
	} {
		if err := led.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	s, err := energyserve.Serve("127.0.0.1:0", energyserve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	s.Bind(energyserve.Backend{Store: db, Ledger: led, Nodes: 4, RackSize: 2})
	return s.Addr()
}
