package core

import (
	"sort"
	"sync"

	"davide/internal/obs"
	"davide/internal/tsdb"
)

// SelfIngest periodically snapshots a registry into a tsdb of its own:
// the monitoring plane monitoring itself, queryable post-hoc with the
// same Fetch/rollup machinery as node telemetry. The health store is
// deliberately separate from the plant's telemetry store so synthetic
// series can never leak into fleet energy totals or node enumeration.
//
// Each scalar series maps to one synthetic node ID; histograms emit
// derived ":p50", ":p99" and ":count" series. IDs are assigned in
// sorted-name order at first sight, so two same-seed replays that
// record at the same cadence build identical stores.
type SelfIngest struct {
	reg *obs.Registry
	db  *tsdb.DB

	mu  sync.Mutex
	ids map[string]int
}

// NewSelfIngest builds a self-ingest sink over reg with its own small
// health store.
func NewSelfIngest(reg *obs.Registry) *SelfIngest {
	return &SelfIngest{
		reg: reg,
		db:  tsdb.New(tsdb.Options{ChunkSize: 128}),
		ids: make(map[string]int),
	}
}

// Store exposes the health store for post-hoc queries.
func (si *SelfIngest) Store() *tsdb.DB { return si.db }

// Record snapshots every registered series (volatile included — health
// queries want high-water marks) into the health store at virtual time
// t, and returns the number of series written. Counters land as
// cumulative series; rate them at query time.
func (si *SelfIngest) Record(t float64) int {
	snap := si.reg.Snapshot(true)
	si.mu.Lock()
	defer si.mu.Unlock()
	n := 0
	for _, m := range snap {
		if m.Kind == obs.KindHistogram {
			if m.Hist.N() == 0 {
				continue
			}
			p50, _ := m.Hist.Quantile(0.5)
			p99, _ := m.Hist.Quantile(0.99)
			si.db.Append(si.idLocked(m.Name+":p50"), t, p50*m.Scale)
			si.db.Append(si.idLocked(m.Name+":p99"), t, p99*m.Scale)
			si.db.Append(si.idLocked(m.Name+":count"), t, float64(m.Hist.N()))
			n += 3
			continue
		}
		si.db.Append(si.idLocked(m.Name), t, m.Value)
		n++
	}
	return n
}

func (si *SelfIngest) idLocked(name string) int {
	if id, ok := si.ids[name]; ok {
		return id
	}
	id := len(si.ids)
	si.ids[name] = id
	return id
}

// Series lists every recorded series name, sorted.
func (si *SelfIngest) Series() []string {
	si.mu.Lock()
	out := make([]string, 0, len(si.ids))
	for name := range si.ids {
		out = append(out, name)
	}
	si.mu.Unlock()
	sort.Strings(out)
	return out
}

// Fetch queries one health series by name over [t0, t1) at the given
// resolution, resolving the synthetic node ID internally.
func (si *SelfIngest) Fetch(name string, t0, t1, res float64) ([]tsdb.Point, error) {
	si.mu.Lock()
	id, ok := si.ids[name]
	si.mu.Unlock()
	if !ok {
		return nil, nil
	}
	return si.db.Fetch(id, t0, t1, res)
}
