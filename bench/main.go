// Command bench is the repository benchmark (BENCHMARK.json): four
// workloads over the telemetry fabric, the closed control loop and the
// energy query service, each run from a seed, checked for correctness
// and reported as named metrics with units. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one invocation's arguments.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports. A "unit" is the
// workload's unit of useful work (a delivered sample, a control tick, an
// answered query) and an "op" the call a user waits on (one
// Plane.Stream window, one tick, one query); README.md has the table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"op_growth_x", "x"},
	{"cpu_us_per_unit", "us"},
	{"peak_rss_mb", "MB"},
}

// workloadDef is one named workload.
type workloadDef struct {
	name  string
	sizes string
	// tailPct is the percentile op_ms_tail reports: the highest one that
	// keeps at least minBeyond samples beyond it at this workload's
	// operation count on the reference machine. It is fixed rather than
	// chosen per run so the metric never changes meaning between runs.
	tailPct float64
	run     func(r *run) error
}

var workloads = []workloadDef{
	fabric1k.def("fabric-1k", 90),
	pilotBulk.def("pilot-bulk", 90),
	controlLoopDef,
	queryMixDef,
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// run accumulates what one workload execution measures. Work is done in
// rounds of fixed size: a round sets the system up from scratch (timed as
// set-up), executes a fixed number of operations (timed as the measured
// section) and tears down. Rounds repeat until the measured sections add
// up to the requested seconds, so counts inside a round repeat exactly
// per seed while the run length follows the clock.
type run struct {
	cfg config
	tr  *tracer // nil unless traced

	setups []float64   // seconds, one per round
	rounds [][]float64 // per-round op latencies in ms, in issue order
	// Totals over the measured sections, and the same split per round.
	units    int64 // work units completed
	wall     time.Duration
	cpu      time.Duration
	allocs   uint64
	perRound []roundCost
	// The open round's reference-kernel slices (pace.go): each one's
	// duration in ms, and the time they took together.
	slices  []float64
	sliceIn time.Duration

	attempted int
	failed    int
	failures  []string

	layer map[string]float64 // per-layer metric values by name
	notes []string           // exact values printed beside the metrics
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, layer: make(map[string]float64)}
	if cfg.traced {
		r.tr = newTracer()
	}
	return r
}

// more reports whether another round should start: always a first one,
// then as long as half an average round still fits the requested time.
func (r *run) more() bool {
	n := len(r.rounds)
	if n == 0 {
		return true
	}
	avg := r.wall / time.Duration(n)
	return (r.wall + avg/2).Seconds() < r.cfg.seconds
}

// roundCost is one round's measured section, net of the reference
// slices run inside it. speed is the machine's speed over the round
// against nominal (1 = nominal, 0.8 = a fifth slower): a time measured
// in the round, multiplied by speed, is that time at nominal speed.
type roundCost struct {
	units     int64
	wall, cpu time.Duration
	speed     float64
}

// pace runs one slice of the reference kernel. Workloads call it between
// operations of the measured section, outside any operation's own timing.
func (r *run) pace() {
	d := slice()
	r.slices = append(r.slices, ms(d))
	r.sliceIn += d
}

// section is one round's measured section: wall time, process CPU and
// heap allocations between begin and end are accounted to the run.
type section struct {
	r  *run
	t0 time.Time
	c0 time.Duration
	m0 uint64
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (r *run) begin() *section {
	r.slices, r.sliceIn = r.slices[:0], 0
	return &section{r: r, m0: mallocs(), c0: cpuTime(), t0: time.Now()}
}

// end closes the section, in which units of work were completed. The
// reference slices are single-threaded and never block, so their wall
// time is also their CPU time and comes off both.
func (s *section) end(units int64) {
	r := s.r
	wall, cpu := time.Since(s.t0)-r.sliceIn, cpuTime()-s.c0-r.sliceIn
	speed := speedFactor(r.slices)
	r.units += units
	r.wall += wall
	r.cpu += cpu
	r.allocs += mallocs() - s.m0
	r.perRound = append(r.perRound, roundCost{units: units, wall: wall, cpu: cpu, speed: speed})
}

// measure runs fn as one round's measured section; fn returns the units
// of work it completed.
func (r *run) measure(fn func() (int64, error)) error {
	s := r.begin()
	units, err := fn()
	s.end(units)
	return err
}

// ok counts one attempted operation or check; a false cond fails it.
func (r *run) ok(cond bool, format string, args ...any) {
	r.attempted++
	if !cond {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// passed counts n attempted operations that succeeded, without the
// formatting arguments ok would box on every call of a hot loop.
func (r *run) passed(n int) { r.attempted += n }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// exact records values that must repeat bit for bit whenever the same
// seed is run again; the A/A mode compares these lines verbatim.
func (r *run) exact(format string, args ...any) {
	r.notes = append(r.notes, exactPrefix+fmt.Sprintf(format, args...))
}

const exactPrefix = "exact: "

// value is one reported metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// endToEndValues derives the end-to-end metrics from the accumulated run.
// Every time is first brought to nominal machine speed with its round's
// speed factor (pace.go). Throughput, median latency, CPU cost and set-up
// are then computed per round and the median round is reported, which
// shrugs off a disturbed round where a grand total would not. The tail
// and the ageing ratio need every sample they can get and are computed
// over all rounds together.
func (r *run) endToEndValues(tailPct float64) map[string]float64 {
	var setups, perS, p50, cpuUS, all []float64
	for i, c := range r.perRound {
		setups = append(setups, r.setups[i]*c.speed)
		perS = append(perS, float64(c.units)/(c.wall.Seconds()*c.speed))
		cpuUS = append(cpuUS, us(c.cpu)*c.speed/float64(c.units))
		p50 = append(p50, percentile(sortedCopy(r.rounds[i]), 50)*c.speed)
		for _, v := range r.rounds[i] {
			all = append(all, v*c.speed)
		}
	}
	return map[string]float64{
		"setup_s":         median(setups),
		"units_per_s":     median(perS),
		"op_ms_p50":       median(p50),
		"op_ms_tail":      percentile(sortedCopy(all), tailPct),
		"op_growth_x":     growth(r.rounds),
		"cpu_us_per_unit": median(cpuUS),
		"peak_rss_mb":     peakRSSMB(),
	}
}

// rawNote records the machine's speed over the run and what the headline
// times read before they were brought to nominal speed.
func (r *run) rawNote() {
	var speed, perS, p50 []float64
	for i, c := range r.perRound {
		speed = append(speed, c.speed)
		perS = append(perS, float64(c.units)/c.wall.Seconds())
		p50 = append(p50, percentile(sortedCopy(r.rounds[i]), 50))
	}
	s := sortedCopy(speed)
	r.note("machine speed against nominal: median %.3f (rounds %.3f to %.3f); as measured: units_per_s %.6g, op_ms_p50 %.6g, setup_s %.4g",
		median(speed), s[0], s[len(s)-1], median(perS), median(p50), median(r.setups))
}

// finishLayers adds the per-layer metrics every workload shares.
func (r *run) finishLayers() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.layer["process.peak_rss_mb"] = peakRSSMB()
	r.layer["process.mallocs_per_unit"] = float64(r.allocs) / float64(r.units)
	r.layer["process.gc_cpu_pct"] = 100 * m.GCCPUFraction
	kept, dropped := r.tr.count()
	r.layer["trace.spans"] = float64(kept)
	r.layer["trace.spans_dropped"] = float64(dropped)
}

// execute runs one workload in this process and prints its report; the
// returned error is a failure to run at all, not a failed check.
func execute(cfg config) error {
	w, found := findWorkload(cfg.workload)
	if !found {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	prov := gatherProvenance(cfg.workload, cfg.seed, cfg.seconds, cfg.traced, w.sizes)
	if cfg.traced {
		// A traced run measures for the requested time too: two thirds of
		// it traced, the rest untraced for the overhead comparison.
		cfg.seconds *= 2.0 / 3
	}
	r := newRun(cfg)
	if err := w.run(r); err != nil {
		return err
	}
	if len(r.rounds) == 0 || r.units == 0 {
		return errors.New("workload completed no operations")
	}

	defs, vals := endToEnd, r.endToEndValues(w.tailPct)
	r.rawNote()
	if cfg.traced {
		// Tracing overhead: the same workload once more with tracing off,
		// for half as long, compared on the median operation.
		plain := cfg
		plain.traced, plain.seconds = false, cfg.seconds/2
		base := newRun(plain)
		if err := w.run(base); err != nil {
			return err
		}
		p50 := base.endToEndValues(w.tailPct)["op_ms_p50"]
		r.layer["trace.overhead_pct"] = 100 * (vals["op_ms_p50"] - p50) / p50
		r.finishLayers()
		defs, vals = perLayer, r.layer
		path := filepath.Join(".bench_build", "trace-"+cfg.workload+".json")
		if err := r.tr.write(path, prov); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace: %s\n", path)
		r.notes = append(r.notes, r.tr.summary()...)
	}

	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance: %s\n", pj)
	n := len(flatten(r.rounds))
	fmt.Printf("rounds: %d  ops: %d  units: %d  measured: %.3f s  tail: p%g (%d samples beyond, supported p%g)\n",
		len(r.rounds), n, r.units, r.wall.Seconds(), w.tailPct,
		n-percentileRank(n, w.tailPct), supportedTail(n))
	for _, s := range r.notes {
		fmt.Println(s)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := vals[d.name]
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
		fmt.Printf("%-34s %16.6g %s\n", d.name, v, d.unit)
	}
	fmt.Printf("failed_ops / attempted_ops: %d / %d\n", r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var cfg config
	var trace int
	var aa bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or \"all\" for one set (each workload in its own process)")
	flag.Int64Var(&cfg.seed, "seed", 7, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "seconds of measured work per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end run")
	flag.BoolVar(&aa, "aa", false, "A/A mode: run two full sets of the same code and compare them against the bounds in BENCHMARK.json")
	flag.Parse()
	cfg.traced = trace != 0

	var err error
	switch {
	case aa:
		err = runAA(cfg)
	case cfg.workload == "all":
		_, err = runSet(cfg)
	default:
		err = execute(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
