package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// setResult is one workload's outcome within a set.
type setResult struct {
	result
	exact []string // the run's must-repeat lines
}

// runSet runs every workload once, each in its own process (a fresh
// heap, fresh sockets, no warm caches carried from the previous
// workload), echoing each report.
func runSet(cfg config) (map[string]setResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	out := make(map[string]setResult, len(workloads))
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		fmt.Printf("== %s ==\n%s", w.name, stdout)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		var sr setResult
		var last string
		sc := bufio.NewScanner(bytes.NewReader(stdout))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			last = sc.Text()
			if strings.HasPrefix(last, exactPrefix) {
				sr.exact = append(sr.exact, last)
			}
		}
		if err := json.Unmarshal([]byte(last), &sr.result); err != nil {
			return nil, fmt.Errorf("%s: result line: %w", w.name, err)
		}
		out[w.name] = sr
	}
	return out, nil
}

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, nil
}

// runAA runs two full sets of the same code back to back and holds the
// benchmark to its own bounds: every end-to-end metric on every workload
// must agree between the sets within its bound, every check must pass,
// and everything declared exact must repeat bit for bit. A bound that
// two runs of identical code cannot meet would call any change a
// regression.
func runAA(cfg config) error {
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	cfg.traced = false
	a, err := runSet(cfg)
	if err != nil {
		return err
	}
	b, err := runSet(cfg)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("== A/A ==\n%-13s %-16s %14s %14s %8s %7s\n", "workload", "metric", "set A", "set B", "gap", "bound")
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		for _, bd := range bounds {
			va, vb := ra.Metrics[bd.Name].Value, rb.Metrics[bd.Name].Value
			gap := math.Abs(vb-va) / va
			verdict := ""
			if !(gap <= bd.Bound) {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-13s %-16s %14.6g %14.6g %7.2f%% %6.0f%%%s\n", w.name, bd.Name, va, vb, 100*gap, 100*bd.Bound, verdict)
		}
		if !ra.Correct || !rb.Correct {
			fmt.Printf("%-13s failed checks: set A %d, set B %d\n", w.name, ra.Failed, rb.Failed)
			bad++
		}
		if strings.Join(ra.exact, "\n") != strings.Join(rb.exact, "\n") {
			fmt.Printf("%-13s exact values differ:\n  A: %s\n  B: %s\n", w.name, strings.Join(ra.exact, " | "), strings.Join(rb.exact, " | "))
			bad++
		}
	}
	if bad > 0 {
		return errors.New(strconv.Itoa(bad) + " A/A comparisons failed")
	}
	fmt.Println("A/A: every metric within its bound, every exact value repeated")
	return nil
}
