// Package accounting implements the per-job and per-user energy accounting
// of §III-A1 of the paper ("per user and per job energy-accounting (EA)"):
// a ledger that records where and when each job ran, integrates the
// telemetry-derived energy-to-solution (ETS), distributes energy cost
// between centre and user, and answers the queries an operator needs —
// per-user totals, top consumers, energy-vs-allocation reports.
//
// It owns the one question both a record and the §IV phase view ask of
// the monitoring plane — what a set of nodes drew over an interval —
// through one EnergySource: RecordFromSource bills a job's interval and
// Phases reports marked intervals, both from the same node sum, so a
// job's one-phase view equals its record bit for bit.
package accounting

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Record is one completed job's accounting entry.
type Record struct {
	JobID   int     `json:"job_id"`
	User    int     `json:"user"`
	App     string  `json:"app"`
	Nodes   int     `json:"nodes"`
	StartAt float64 `json:"start_at"`
	EndAt   float64 `json:"end_at"`
	EnergyJ float64 `json:"energy_j"`
}

// Validate reports whether the record is well-formed.
func (r Record) Validate() error {
	switch {
	case r.Nodes <= 0:
		return errors.New("accounting: record needs nodes")
	case r.EndAt <= r.StartAt:
		return errors.New("accounting: empty interval")
	case r.EnergyJ < 0:
		return errors.New("accounting: negative energy")
	}
	return nil
}

// Duration returns the job's wall time.
func (r Record) Duration() float64 { return r.EndAt - r.StartAt }

// NodeSeconds returns the consumed allocation.
func (r Record) NodeSeconds() float64 { return r.Duration() * float64(r.Nodes) }

// MeanPowerW returns the job's mean total power.
func (r Record) MeanPowerW() float64 { return r.EnergyJ / r.Duration() }

// PerNodePowerW returns the job's measured mean power per allocated node
// — the quantity the online power predictors retrain on.
func (r Record) PerNodePowerW() float64 { return r.MeanPowerW() / float64(r.Nodes) }

// EnergySource answers per-node energy-integral queries — satisfied by
// the telemetry store (tsdb.DB), which is where the paper's EA agent gets
// its measured energy from.
type EnergySource interface {
	Energy(node int, t0, t1 float64) (float64, error)
}

// RecordFromSource builds one job's ledger entry by integrating every
// participating node's measured power over the job's interval: the
// telemetry-backed counterpart of the analytic records RunScheduled
// writes.
func RecordFromSource(src EnergySource, jobID, user int, app string, nodes []int, t0, t1 float64) (Record, error) {
	if src == nil {
		return Record{}, errors.New("accounting: nil energy source")
	}
	if len(nodes) == 0 {
		return Record{}, errors.New("accounting: record needs nodes")
	}
	total, err := nodeEnergy(src, nodes, t0, t1)
	if err != nil {
		return Record{}, fmt.Errorf("accounting: job %d %w", jobID, err)
	}
	r := Record{
		JobID: jobID, User: user, App: app, Nodes: len(nodes),
		StartAt: t0, EndAt: t1, EnergyJ: total,
	}
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// nodeEnergy sums the source's energy integral over [t0, t1] across
// nodes, in node order: the one sum behind records and phases. An error
// names the node that failed.
func nodeEnergy(src EnergySource, nodes []int, t0, t1 float64) (float64, error) {
	total := 0.0
	for _, n := range nodes {
		e, err := src.Energy(n, t0, t1)
		if err != nil {
			return 0, fmt.Errorf("node %d: %w", n, err)
		}
		total += e
	}
	return total, nil
}

// Phase is one measured interval of an application run (§IV: marked
// program phases correlated with the power the monitoring plane saw).
type Phase struct {
	Name    string
	T0, T1  float64
	EnergyJ float64
	MeanW   float64
}

// Duration returns the phase's wall time.
func (p Phase) Duration() float64 { return p.T1 - p.T0 }

// Phases rebuilds a phase report of a set of nodes from the energy
// source: names[i] labels the interval between bounds[i] and
// bounds[i+1], and its energy is the node sum RecordFromSource bills.
// Bounds must increase; len(names) == len(bounds)-1.
func Phases(src EnergySource, nodes []int, names []string, bounds []float64) ([]Phase, error) {
	if src == nil {
		return nil, errors.New("accounting: nil energy source")
	}
	if len(nodes) == 0 {
		return nil, errors.New("accounting: phase needs nodes")
	}
	if len(bounds) < 2 {
		return nil, errors.New("accounting: need at least two bounds")
	}
	if len(names) != len(bounds)-1 {
		return nil, fmt.Errorf("accounting: %d names for %d phases", len(names), len(bounds)-1)
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			return nil, errors.New("accounting: bounds must increase")
		}
	}
	out := make([]Phase, len(names))
	for i, name := range names {
		t0, t1 := bounds[i], bounds[i+1]
		e, err := nodeEnergy(src, nodes, t0, t1)
		if err != nil {
			return nil, fmt.Errorf("accounting: phase %q %w", name, err)
		}
		out[i] = Phase{Name: name, T0: t0, T1: t1, EnergyJ: e, MeanW: e / (t1 - t0)}
	}
	return out, nil
}

// AddFromSource builds a record from the energy source and appends it.
func (l *Ledger) AddFromSource(src EnergySource, jobID, user int, app string, nodes []int, t0, t1 float64) (Record, error) {
	r, err := RecordFromSource(src, jobID, user, app, nodes, t0, t1)
	if err != nil {
		return Record{}, err
	}
	return r, l.Add(r)
}

// Ledger is the energy-accounting database. Safe for concurrent use.
type Ledger struct {
	mu      sync.RWMutex
	records []Record
	byJob   map[int]int // job ID -> index
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{byJob: make(map[int]int)}
}

// Add appends one record; duplicate job IDs are rejected.
func (l *Ledger) Add(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.byJob[r.JobID]; dup {
		return fmt.Errorf("accounting: duplicate job %d", r.JobID)
	}
	l.byJob[r.JobID] = len(l.records)
	l.records = append(l.records, r)
	return nil
}

// Len returns the number of records.
func (l *Ledger) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.records)
}

// Job returns a job's record.
func (l *Ledger) Job(id int) (Record, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	i, ok := l.byJob[id]
	if !ok {
		return Record{}, fmt.Errorf("accounting: unknown job %d", id)
	}
	return l.records[i], nil
}

// UserSummary aggregates one user's consumption.
type UserSummary struct {
	User        int     `json:"user"`
	Jobs        int     `json:"jobs"`
	EnergyJ     float64 `json:"energy_j"`
	NodeSeconds float64 `json:"node_seconds"`
	// EnergyPerNodeSecond is the user's energy intensity — how hard their
	// jobs drive the hardware. The paper's accounting goal: make this
	// visible so users optimise for it.
	EnergyPerNodeSecond float64 `json:"energy_per_node_second"`
}

// PerUser aggregates the ledger by user, sorted by descending energy.
func (l *Ledger) PerUser() []UserSummary {
	l.mu.RLock()
	defer l.mu.RUnlock()
	acc := map[int]*UserSummary{}
	for _, r := range l.records {
		s := acc[r.User]
		if s == nil {
			s = &UserSummary{User: r.User}
			acc[r.User] = s
		}
		s.Jobs++
		s.EnergyJ += r.EnergyJ
		s.NodeSeconds += r.NodeSeconds()
	}
	out := make([]UserSummary, 0, len(acc))
	for _, s := range acc {
		if s.NodeSeconds > 0 {
			s.EnergyPerNodeSecond = s.EnergyJ / s.NodeSeconds
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EnergyJ != out[j].EnergyJ {
			return out[i].EnergyJ > out[j].EnergyJ
		}
		return out[i].User < out[j].User
	})
	return out
}

// UserRecords returns one user's records in ledger (arrival) order —
// the per-job detail behind the PerUser summary line.
func (l *Ledger) UserRecords(user int) []Record {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Record
	for _, r := range l.records {
		if r.User == user {
			out = append(out, r)
		}
	}
	return out
}

// TotalEnergy returns the ledger-wide energy.
func (l *Ledger) TotalEnergy() float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	t := 0.0
	for _, r := range l.records {
		t += r.EnergyJ
	}
	return t
}

// Bill splits a job's energy cost between the user and the centre. The
// paper: "the energy consumption cost of each job to be distributed
// between the supercomputing center and the user". The user pays for the
// dynamic share above the idle floor; the centre absorbs the idle draw.
func (l *Ledger) Bill(jobID int, idleNodePowerW, pricePerKWh float64) (userCost, centreCost float64, err error) {
	if idleNodePowerW < 0 || pricePerKWh < 0 {
		return 0, 0, errors.New("accounting: negative billing parameter")
	}
	r, err := l.Job(jobID)
	if err != nil {
		return 0, 0, err
	}
	idleJ := idleNodePowerW * float64(r.Nodes) * r.Duration()
	dynJ := r.EnergyJ - idleJ
	if dynJ < 0 {
		dynJ = 0
		idleJ = r.EnergyJ
	}
	const jPerKWh = 3.6e6
	return dynJ / jPerKWh * pricePerKWh, idleJ / jPerKWh * pricePerKWh, nil
}

// MarshalJSON exports the full ledger.
func (l *Ledger) MarshalJSON() ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return json.Marshal(l.records)
}

// LoadJSON replaces the ledger contents from a JSON export.
func (l *Ledger) LoadJSON(data []byte) error {
	var records []Record
	if err := json.Unmarshal(data, &records); err != nil {
		return fmt.Errorf("accounting: load: %w", err)
	}
	fresh := NewLedger()
	for _, r := range records {
		if err := fresh.Add(r); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.records = fresh.records
	l.byJob = fresh.byJob
	return nil
}
