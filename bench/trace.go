package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run records one span per call the benchmark makes into a
// layer's public functions — from the benchmark's own files, so the
// program under test carries no tracing of its own. Spans stay in memory
// and are written as JSON when the run ends.

// span is one timed call. Times are nanoseconds since the tracer started.
// Parent is the ID of the span that caused it (0 for a root); Ref is the
// window, tick or request index the call belongs to, so the spans of one
// operation share an identifier.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Ref    int64  `json:"ref"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the in-memory trace: query-mix issues hundreds of
// thousands of requests a run and a span each would cost more than the
// handler it times. Spans past the bound are counted, not kept.
const maxSpans = 200_000

// tracer collects spans. A nil *tracer records nothing, which is how the
// untraced (end-to-end) run executes the same code paths.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// push keeps s, numbering it, unless the trace is full.
func (t *tracer) push(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span and returns its ID (0 when not recording).
func (t *tracer) begin(name string, parent int, ref int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	return t.push(span{Parent: parent, Name: name, Ref: ref, Start: now, End: now})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were stamped elsewhere (tick
// boundaries come from the controller's Perturb hook).
func (t *tracer) add(name string, parent int, ref int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.push(span{Parent: parent, Name: name, Ref: ref, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// count reports the spans kept and dropped.
func (t *tracer) count() (kept, dropped int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), t.dropped
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap each
// other (concurrent calls) or spill past the parent; the covered part is
// the union of the child intervals clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// summary lists, per span name, how many spans were kept and their total
// duration and self time — where the traced run's time went.
func (t *tracer) summary() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	type agg struct {
		n         int
		dur, self time.Duration
	}
	selfOf := selfTimes(t.spans)
	by := make(map[string]*agg)
	var names []string
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.dur += s.dur()
		a.self += selfOf[s.ID]
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, name := range names {
		a := by[name]
		out[i] = fmt.Sprintf("span %-36s n=%-7d total %10.3f ms  self %10.3f ms", name, a.n, ms(a.dur), ms(a.self))
	}
	return out
}

// traceFile is the JSON document a traced run leaves behind.
type traceFile struct {
	Provenance provenance `json:"provenance"`
	Dropped    int        `json:"dropped_spans"`
	Spans      []span     `json:"spans"`
}

// write stores the trace at path, creating the directory.
func (t *tracer) write(path string, prov provenance) error {
	t.mu.Lock()
	doc := traceFile{Provenance: prov, Dropped: t.dropped, Spans: t.spans}
	t.mu.Unlock()
	body, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
