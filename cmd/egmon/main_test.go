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
	"time"
)

// volatile matches the only output that differs between two runs of one
// mode: the brokers' listening addresses, the trailing wall time of a
// summary line, and two counters that depend on scheduling — the bridge
// queue high-water column and the broker's received bytes (the last
// PUBACK may or may not have been read when the line prints). It is
// applied to both sides, so a golden file is a plain redirect of the
// command's stdout:
//
//	go run ./cmd/egmon -racks 2 -node 1 > cmd/egmon/testdata/racks.golden
//
// usage.golden is `egmon -h` (stderr; only the binary's path is masked),
// so the flag surface changes as a reviewed diff.
var volatile = regexp.MustCompile(`(?m)(listening on ).*$|(, )\S+ wall$|^(r\d\d +\d+ +\d+) +\d+$|(dropped, )\d+ B received$|^(Usage of ).*$`)

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
		"default":   "",
		"racks":     "-racks 2 -node 1",
		"cap-track": "-cap-track dr-ramp",
		"live":      "-live",
		"usage":     "-h",
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
			got, want = volatile.ReplaceAll(got, []byte("$1$2$3$4$5~")), volatile.ReplaceAll(want, []byte("$1$2$3$4$5~"))
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

// TestHostileFlags: a non-finite -cap is a usage error — exit 2 with one
// line on stderr, nothing on stdout, before any broker listens. At the
// parent a NaN cap reached the controller, which never admits a job under
// it. Not skipped under -short.
func TestHostileFlags(t *testing.T) {
	bin := build(t)
	for _, args := range []string{
		"-cap-track dr-ramp -cap NaN",
		"-cap-track dr-ramp -cap Inf",
		"-cap -Inf",
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(args)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		start := time.Now()
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("egmon %s: %v, want exit status 2\n%s", args, err, stderr.Bytes())
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("egmon %s took %s, want a refusal before any work", args, d)
		}
		if stdout.Len() != 0 || bytes.Count(stderr.Bytes(), []byte("\n")) != 1 {
			t.Errorf("egmon %s: want nothing on stdout and one line on stderr, got\nstdout: %s\nstderr: %s",
				args, stdout.Bytes(), stderr.Bytes())
		}
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
