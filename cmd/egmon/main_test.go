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
var volatile = regexp.MustCompile(`(?m)(listening on ).*$|(, )\S+ wall$|^(r\d\d +\d+ +\d+) +\d+$|(dropped, )\d+ B received$`)

// TestGoldenModes runs the built binary once per mode the verify skill
// drives by hand and pins its stdout to testdata/<mode>.golden.
func TestGoldenModes(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "egmon")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for name, args := range map[string]string{
		"default":   "",
		"racks":     "-racks 2 -node 1",
		"cap-track": "-cap-track dr-ramp",
		"live":      "-live",
	} {
		t.Run(name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, strings.Fields(args)...)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("egmon %s: %v\n%s", args, err, stderr.Bytes())
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			got, want = volatile.ReplaceAll(got, []byte("$1$2$3$4~")), volatile.ReplaceAll(want, []byte("$1$2$3$4~"))
			if !bytes.Equal(got, want) {
				t.Fatalf("stdout differs from testdata/%s.golden:\n got:\n%s\nwant:\n%s", name, got, want)
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
