package tournament

import (
	"fmt"
	"sort"
	"strings"

	"davide/internal/core"
	"davide/internal/fleet"
	"davide/internal/scenario"
	"davide/internal/sched"
	"davide/internal/stats"
	"davide/internal/workload"
)

// Axis kinds. An axis names one stress condition a policy competes
// under: "clean" (undisturbed transport), "chaos/<preset>" (one gateway
// chaos preset over the whole run) or "scenario/<name>" (a registered
// scenario: cap trajectories, arrival shaping, thermal events, composed
// chaos).
const (
	AxisClean    = "clean"
	axisChaos    = "chaos"
	axisScenario = "scenario"
)

// AxisNames returns every tournament axis in canonical order: clean,
// then the gateway chaos presets, then the scenario registry (both in
// their registries' sorted order).
func AxisNames() []string {
	axes := []string{AxisClean}
	for _, p := range fleet.ChaosPresetNames() {
		axes = append(axes, axisChaos+"/"+p)
	}
	for _, s := range scenario.Names() {
		axes = append(axes, axisScenario+"/"+s)
	}
	return axes
}

// splitAxis validates an axis name and splits it into kind and detail.
func splitAxis(axis string) (kind, name string, err error) {
	if axis == AxisClean {
		return AxisClean, "", nil
	}
	kind, name, ok := strings.Cut(axis, "/")
	if !ok || name == "" || (kind != axisChaos && kind != axisScenario) {
		return "", "", fmt.Errorf("tournament: malformed axis %q (want %q, %q/<preset> or %q/<name>)",
			axis, AxisClean, axisChaos, axisScenario)
	}
	return kind, name, nil
}

// Config parameterises one tournament. The zero value of any field
// takes the corresponding DefaultConfig value, so Config{} runs the
// full reference tournament: every policy across every axis at the
// E19/E22 geometry (12 nodes, 14 kW cap, 15 s ticks, seed 7, 24 hot
// jobs) — which makes the fifo and power rows literally reproduce the
// E19/E22 benchmark figures.
type Config struct {
	// Seed drives workload generation, chaos plans and scenarios; the
	// same seed replays the whole tournament bit-identically.
	Seed int64
	// Machine geometry and control loop (E19's scaled pilot).
	Nodes      int
	CapW       float64
	TickS      float64
	SampleRate float64
	RackSize   int
	// TrainJobs sizes the predictor's training batch; Jobs the scheduled
	// workload (drawn from the same generator stream, submits rebased
	// to 0).
	TrainJobs int
	Jobs      int
	// ChaosBatchSamples is the gateway stream batch size under chaos
	// axes (E19 uses 16 so loss windows span whole batches).
	ChaosBatchSamples int
	// Policies and Axes select subsets by name; empty means all.
	Policies []string
	Axes     []string
}

// DefaultConfig is the reference tournament: the committed
// tournament.json and STRATEGY_LEDGER.md are generated from exactly
// this configuration.
func DefaultConfig() Config {
	return Config{
		Seed:              7,
		Nodes:             12,
		CapW:              14000,
		TickS:             15,
		SampleRate:        4,
		RackSize:          6,
		TrainJobs:         600,
		Jobs:              24,
		ChaosBatchSamples: 16,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if c.CapW == 0 {
		c.CapW = d.CapW
	}
	if c.TickS == 0 {
		c.TickS = d.TickS
	}
	if c.SampleRate == 0 {
		c.SampleRate = d.SampleRate
	}
	if c.RackSize == 0 {
		c.RackSize = d.RackSize
	}
	if c.TrainJobs == 0 {
		c.TrainJobs = d.TrainJobs
	}
	if c.Jobs == 0 {
		c.Jobs = d.Jobs
	}
	if c.ChaosBatchSamples == 0 {
		c.ChaosBatchSamples = d.ChaosBatchSamples
	}
	return c
}

// workload draws the train/work batches exactly like the E19 suite:
// DefaultGeneratorConfig reshaped to the hot short-job mix (1-4 nodes,
// ~5 min runtimes, 60 s interarrivals) that oversubscribes the 14 kW
// cap, work submits rebased to zero.
func (c Config) workload() (train, work []workload.Job, err error) {
	wcfg := workload.DefaultGeneratorConfig(c.Seed)
	wcfg.MaxNodes = 4
	wcfg.MeanInterarrival = 60
	wcfg.MeanRuntime = 300
	wcfg.RuntimeSigma = 0.6
	gen, err := workload.NewGenerator(wcfg)
	if err != nil {
		return nil, nil, err
	}
	if train, err = gen.Batch(c.TrainJobs); err != nil {
		return nil, nil, err
	}
	if work, err = gen.Batch(c.Jobs); err != nil {
		return nil, nil, err
	}
	base := work[0].SubmitAt
	for i := range work {
		work[i].SubmitAt -= base
	}
	return train, work, nil
}

// Cell is one (policy, axis) run's scorecard. All metric fields are
// lower-is-better; Composite and Rank are filled by the scoring pass
// (Rank 1 = best on the axis).
type Cell struct {
	Policy string `json:"policy"`
	Axis   string `json:"axis"`

	MaxOverPct      float64 `json:"max_over_pct"`
	CapViolationSec float64 `json:"cap_violation_s"`
	EnergyErrPct    float64 `json:"energy_err_pct"`
	MeanWaitS       float64 `json:"mean_wait_s"`
	P95WaitS        float64 `json:"p95_wait_s"`
	MakespanS       float64 `json:"makespan_s"`
	BrownoutS       float64 `json:"brownout_s"`

	UtilizationPct    float64 `json:"utilization_pct"`
	RefusedAdmissions int     `json:"refused_admissions"`
	StaleReads        int     `json:"stale_reads"`

	Composite float64 `json:"composite"`
	Rank      int     `json:"rank"`
}

// runCell executes one (policy, axis) run on the live control plane.
func (c Config) runCell(pol Policy, axis string) (Cell, error) {
	kind, name, err := splitAxis(axis)
	if err != nil {
		return Cell{}, err
	}
	train, work, err := c.workload()
	if err != nil {
		return Cell{}, err
	}
	sys, err := core.NewSystem(train)
	if err != nil {
		return Cell{}, err
	}
	strategy, err := sched.Lookup(pol.Name)
	if err != nil {
		return Cell{}, err
	}
	lcfg := core.LiveConfig{
		Nodes:      c.Nodes,
		SampleRate: c.SampleRate,
		RackSize:   c.RackSize,
		Sched: sched.ControllerConfig{
			Strategy: strategy,
			Config:   sched.Config{PowerCapW: c.CapW, ReactiveCapping: pol.Reactive},
			TickS:    c.TickS,
		},
	}

	// submits maps job ID to the submit time the controller actually
	// saw (scenario axes warp arrivals), for the wait percentile.
	submits := make(map[int]float64, len(work))
	for _, j := range work {
		submits[j.ID] = j.SubmitAt
	}

	var live *core.LiveResult
	switch kind {
	case AxisClean:
		live, err = sys.RunLive(work, lcfg)
	case axisChaos:
		cp, perr := fleet.ChaosPreset(name, c.Seed)
		if perr != nil {
			return Cell{}, perr
		}
		sys.StreamFaults = cp
		sys.StreamBatchSamples = c.ChaosBatchSamples
		live, err = sys.RunLive(work, lcfg)
	case axisScenario:
		sc, serr := scenario.Get(name)
		if serr != nil {
			return Cell{}, serr
		}
		warped, werr := sc.RetimeArrivals(work)
		if werr != nil {
			return Cell{}, werr
		}
		for _, j := range warped {
			submits[j.ID] = j.SubmitAt
		}
		var res *core.ScenarioResult
		res, err = sys.RunScenario(sc, c.Seed, work, lcfg)
		if err == nil {
			live = &res.LiveResult
		}
	}
	if err != nil {
		return Cell{}, fmt.Errorf("tournament: %s on %s: %w", pol.Name, axis, err)
	}

	waits := make([]float64, 0, len(live.Starts))
	for id, start := range live.Starts {
		waits = append(waits, start-submits[id])
	}
	sort.Float64s(waits)
	p95 := 0.0
	if len(waits) > 0 {
		if p95, err = stats.Percentile(waits, 95); err != nil {
			return Cell{}, err
		}
	}

	return Cell{
		Policy:            pol.Name,
		Axis:              axis,
		MaxOverPct:        live.MaxOverPct,
		CapViolationSec:   live.CapViolationSec,
		EnergyErrPct:      live.EnergyErrPct(),
		MeanWaitS:         live.MeanWait,
		P95WaitS:          p95,
		MakespanS:         live.Makespan,
		BrownoutS:         float64(live.BrownoutTicks) * c.TickS,
		UtilizationPct:    live.UtilizationPct,
		RefusedAdmissions: live.RefusedAdmissions,
		StaleReads:        live.StaleReads,
	}, nil
}

// Progress receives one notification per completed cell (optional).
type Progress func(done, total int, cell Cell)

// Run executes the tournament: every selected policy on every selected
// axis, sequentially in canonical order (axes cycle fastest), scored
// and ranked into a Report. Deterministic: the same Config yields a
// bit-identical Report.
func Run(cfg Config, progress Progress) (*Report, error) {
	cfg = cfg.withDefaults()

	pols := make([]Policy, 0, len(policies))
	if len(cfg.Policies) == 0 {
		pols = Policies()
	} else {
		for _, name := range cfg.Policies {
			p, err := GetPolicy(name)
			if err != nil {
				return nil, err
			}
			pols = append(pols, p)
		}
	}
	axes := cfg.Axes
	if len(axes) == 0 {
		axes = AxisNames()
	} else {
		for _, a := range axes {
			if _, _, err := splitAxis(a); err != nil {
				return nil, err
			}
		}
	}

	cells := make([]Cell, 0, len(pols)*len(axes))
	total := len(pols) * len(axes)
	for _, pol := range pols {
		for _, axis := range axes {
			cell, err := cfg.runCell(pol, axis)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
			if progress != nil {
				progress(len(cells), total, cell)
			}
		}
	}
	return buildReport(cfg, pols, axes, cells), nil
}
