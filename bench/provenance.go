package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// provenance is recorded beside every number the benchmark prints
// (ROADMAP aim 1b): a figure without its machine is not comparable.
type provenance struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	OS         string  `json:"os"`
	Commit     string  `json:"git_commit"`
	Dirty      bool    `json:"git_dirty"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Sizes      string  `json:"sizes"`
}

func gatherProvenance(workload string, seed int64, seconds float64, traced bool, sizes string) provenance {
	p := provenance{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH + " " + kernelRelease(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		Sizes:      sizes,
	}
	p.Commit, p.Dirty = gitState()
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// gitState reports the checkout's commit and whether it has local
// changes. The search is confined to the working directory, so a
// checkout that is not itself a repository reads "none" even when some
// parent directory is one.
func gitState() (commit string, dirty bool) {
	wd, err := os.Getwd()
	if err != nil {
		return "none", false
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	commit, err = git("rev-parse", "HEAD")
	if err != nil {
		return "none", false
	}
	status, err := git("status", "--porcelain")
	return commit, err == nil && status != ""
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
