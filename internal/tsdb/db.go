// Package tsdb is the telemetry back end of the monitoring plane: the
// role the paper's ExaMon-style Cassandra/KairosDB store plays in §III-A,
// scaled down to an embeddable engine. It keeps each node's power stream
// as immutable Gorilla-compressed chunks (delta-of-delta timestamps,
// XOR-compressed watts) with per-chunk partial energy sums, maintains
// multi-resolution rollups (mean/max/energy per bucket) on ingest, and
// applies a retention policy that drops raw chunks past a horizon while
// keeping the rollups, so month-scale replays stay queryable at a bounded
// memory footprint.
//
// A batch is ingested as a run: the in-order part goes into the head and
// the rollups in bulk, sealing where single appends would, and leaves the
// state one Append per sample would, bit for bit.
//
// Raw chunks are read by one walk, series.integrate, which serves Energy,
// MeanPower, and EnergyAt, Fetch and Window at res = 0. It locates the
// window by binary search over the chunk index and combines precomputed
// partial sums, decoding only the chunks the window boundaries cut —
// O(log chunks + boundary samples) instead of the O(samples) scan of a
// flat slice; listing the raw points decodes the interior chunks too.
// Energy reaching behind the raw retention horizon is served from the
// finest surviving rollup, accurate to one bucket width per boundary.
package tsdb

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
)

// Errors returned by the query API.
var (
	ErrUnknownNode = errors.New("tsdb: no data for node")
	ErrShortSeries = errors.New("tsdb: series too short")
	ErrBadWindow   = errors.New("tsdb: window needs finite t0 <= t1")
	ErrBadRes      = errors.New("tsdb: resolution not maintained")
)

// DefaultChunkSize is the chunk size used when Options.ChunkSize is
// unset — also the default reordering tolerance of the ingest path,
// which transport-fault planners size against.
const DefaultChunkSize = 256

// Options tunes a DB. The zero value is ready to use.
type Options struct {
	// ChunkSize is the number of raw samples per sealed chunk and the
	// minimum reordering tolerance of the ingest path: the head keeps
	// at least the ChunkSize newest samples uncompressed (sealing the
	// older half when it reaches twice that), so a sample up to
	// ChunkSize positions behind the newest always still places.
	// Default 256.
	ChunkSize int
	// Resolutions are the rollup bucket widths in seconds, ascending.
	// Default [1, 60].
	Resolutions []float64
	// RetainRaw drops sealed raw chunks older than this many seconds
	// behind each node's newest sample. 0 keeps raw data forever.
	RetainRaw float64
	// Shards is the lock-stripe count, rounded up to a power of two so
	// node→shard routing is a mask instead of a modulo. 0 sizes the
	// store to the machine: the smallest power of two ≥ 4×GOMAXPROCS
	// (and ≥ MinShards), so rack-parallel writers land on distinct
	// stripes with headroom even when node IDs cluster. Each shard
	// seals its own heads, so writers on different stripes never
	// contend on one chunk head.
	Shards int
}

// MinShards is the smallest stripe count New will build (the historical
// fixed layout), MaxShards the largest an explicit Options.Shards can
// request.
const (
	MinShards = 16
	MaxShards = 1024
)

// shardCountFor normalises a shard request to the power-of-two stripe
// count a DB (or any other node-striped structure) should use.
func shardCountFor(req int) int {
	n := req
	if n <= 0 {
		n = 4 * runtime.GOMAXPROCS(0)
		if n < MinShards {
			n = MinShards
		}
	}
	if n > MaxShards {
		n = MaxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ShardCountFor exposes the sizing rule so sibling packages (the
// telemetry aggregator stripes the same node space) stay in lockstep
// with the store.
func ShardCountFor(req int) int { return shardCountFor(req) }

func (o Options) withDefaults() Options {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if len(o.Resolutions) == 0 {
		o.Resolutions = []float64{1, 60}
	} else {
		o.Resolutions = append([]float64(nil), o.Resolutions...)
		sort.Float64s(o.Resolutions)
	}
	return o
}

type shard struct {
	mu     sync.RWMutex
	series map[int]*series
}

// DB is a sharded, append-optimised time-series store for per-node power
// streams. Safe for concurrent use. The stripe count is fixed at New
// time (see Options.Shards); node→shard routing is a power-of-two mask.
type DB struct {
	opts   Options
	shards []shard
	mask   uint32
}

// New creates a store.
func New(opts Options) *DB {
	n := shardCountFor(opts.Shards)
	db := &DB{opts: opts.withDefaults(), shards: make([]shard, n), mask: uint32(n - 1)}
	for i := range db.shards {
		db.shards[i].series = make(map[int]*series)
	}
	return db
}

// Shards reports the stripe count the store was built with.
func (db *DB) Shards() int { return len(db.shards) }

func (db *DB) shard(node int) *shard {
	if node < 0 {
		node = -node
	}
	return &db.shards[uint32(node)&db.mask]
}

// Append ingests one sample for a node. Out-of-order samples are placed
// as long as they land inside the open head window (a rolling window of
// at least the ChunkSize newest samples); duplicates overwrite; anything
// older than the sealed horizon is counted and dropped.
func (db *DB) Append(node int, t, w float64) {
	sh := db.shard(node)
	sh.mu.Lock()
	s := sh.series[node]
	if s == nil {
		s = newSeries(node, db.opts.Resolutions)
		sh.series[node] = s
	}
	s.append(t, 0, []float64{w}, db.opts.ChunkSize, db.opts.RetainRaw)
	sh.mu.Unlock()
}

// AppendBatch ingests a uniformly spaced batch starting at t0: sample i
// at t0+i*dt, exactly as if each were passed to Append in turn.
func (db *DB) AppendBatch(node int, t0, dt float64, samples []float64) {
	if len(samples) == 0 {
		return
	}
	sh := db.shard(node)
	sh.mu.Lock()
	s := sh.series[node]
	if s == nil {
		s = newSeries(node, db.opts.Resolutions)
		sh.series[node] = s
	}
	s.append(t0, dt, samples, db.opts.ChunkSize, db.opts.RetainRaw)
	sh.mu.Unlock()
}

func (db *DB) get(node int) (*series, *shard, error) {
	sh := db.shard(node)
	sh.mu.RLock()
	s := sh.series[node]
	if s == nil {
		sh.mu.RUnlock()
		return nil, nil, fmt.Errorf("%w %d", ErrUnknownNode, node)
	}
	return s, sh, nil
}

// Energy integrates the node's power over [t0, t1] in joules, by the same
// left-rectangle rule the flat-slice aggregator used: each sample spans
// to its successor, the newest sample spans the last observed gap. Raw
// chunks answer exactly; ranges behind the retention horizon fall back to
// the finest rollup.
func (db *DB) Energy(node int, t0, t1 float64) (float64, error) {
	s, sh, err := db.get(node)
	if err != nil {
		return 0, err
	}
	defer sh.mu.RUnlock()
	if !goodWindow(t0, t1) {
		return 0, ErrBadWindow
	}
	return s.rawEnergy(t0, t1, nil)
}

// goodWindow reports whether [t0, t1] is a window the store answers: both
// bounds finite and t0 <= t1. It is written as what must hold, so a NaN
// bound fails it.
func goodWindow(t0, t1 float64) bool {
	return t0 <= t1 && !math.IsInf(t0, 0) && !math.IsInf(t1, 0)
}

// rawEnergy is Energy over a valid window, under the shard lock; a non-nil
// pts also collects the window's raw samples (see integrate).
func (s *series) rawEnergy(t0, t1 float64, pts *[]Point) (float64, error) {
	if s.total < 2 {
		return 0, fmt.Errorf("%w (node %d)", ErrShortSeries, s.node)
	}
	e := 0.0
	if rs := s.rawStart(); s.droppedRaw && t0 < rs && len(s.rolls) > 0 {
		e += s.rolls[0].energy(t0, math.Min(t1, rs))
		t0 = math.Min(t1, rs)
	}
	return e + s.integrate(t0, t1, pts), nil
}

// MeanPower returns the mean power over [t0, t1].
func (db *DB) MeanPower(node int, t0, t1 float64) (float64, error) {
	e, err := db.Energy(node, t0, t1)
	if err != nil {
		return 0, err
	}
	if t1 <= t0 {
		return 0, errors.New("tsdb: empty window")
	}
	return e / (t1 - t0), nil
}

// Point is one downsampled bucket (or one raw sample, with T0 == T1).
type Point struct {
	T0, T1  float64 // bucket bounds, seconds
	MeanW   float64
	MaxW    float64
	EnergyJ float64
}

// Fetch returns the series over [t0, t1] at the given resolution: res = 0
// lists the retained raw samples with t in [t0, t1], otherwise res must be
// one of the maintained rollup widths.
func (db *DB) Fetch(node int, t0, t1, res float64) ([]Point, error) {
	var out []Point
	_, err := db.window(node, t0, t1, res, false, &out)
	return out, err
}

// EnergyAt integrates over [t0, t1] at a fixed resolution: res = 0 uses
// raw chunks (exact), otherwise the matching rollup (boundary buckets
// pro-rata — accurate to res × the peak power per boundary). Mainly for
// raw-vs-rollup agreement checks and for interrogating what a retention
// policy would preserve.
func (db *DB) EnergyAt(node int, t0, t1, res float64) (float64, error) {
	return db.window(node, t0, t1, res, true, nil)
}

// Window answers EnergyAt and Fetch for one window from one state of the
// store: the shard lock is held once, so no append lands between the
// energy and the points, and a raw window decodes each chunk once for
// both. The energy has EnergyAt's bits and error; the points are Fetch's,
// appended to dst.
func (db *DB) Window(node int, t0, t1, res float64, dst []Point) (energyJ float64, pts []Point, err error) {
	energyJ, err = db.window(node, t0, t1, res, true, &dst)
	return energyJ, dst, err
}

// window computes the energy over [t0, t1] at res, appends the points to
// *pts, or both, as asked, under one hold of the shard lock.
func (db *DB) window(node int, t0, t1, res float64, energy bool, pts *[]Point) (e float64, err error) {
	s, sh, err := db.get(node)
	if err != nil {
		return 0, err
	}
	defer sh.mu.RUnlock()
	if !goodWindow(t0, t1) {
		return 0, ErrBadWindow
	}
	if res == 0 {
		if energy {
			return s.rawEnergy(t0, t1, pts)
		}
		// Points alone: a series of one sample still lists it.
		s.integrate(t0, t1, pts)
		return 0, nil
	}
	for _, r := range s.rolls {
		if r.width != res {
			continue
		}
		if energy {
			e = r.energy(t0, t1)
		}
		if pts != nil {
			*pts = r.points(t0, t1, *pts)
		}
		return e, nil
	}
	return 0, fmt.Errorf("%w: %g s (have %v)", ErrBadRes, res, db.opts.Resolutions)
}

// DropRawBefore applies the retention policy across all nodes: sealed raw
// chunks wholly before t are dropped, rollups are kept. Returns the
// number of chunks dropped.
func (db *DB) DropRawBefore(t float64) int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		for _, s := range sh.series {
			n += s.dropRawBefore(t)
		}
		sh.mu.Unlock()
	}
	return n
}

// Nodes returns the node IDs present, sorted.
func (db *DB) Nodes() []int {
	var out []int
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for id := range sh.series {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Ints(out)
	return out
}

// IngestedSamples returns the monotonic count of samples ever accepted
// for a node. It is the freshness watermark for telemetry-fed control:
// unlike the retained count in Stats, it never decreases when the
// retention policy drops sealed raw chunks, so a chunk drop cannot
// masquerade as telemetry loss.
func (db *DB) IngestedSamples(node int) int {
	sh := db.shard(node)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s := sh.series[node]; s != nil {
		return s.total
	}
	return 0
}

// Watermark is a monotonic per-node ingest version: it advances whenever
// an event could change a query answer — a sample accepted, a duplicate
// overwritten in place, or a sealed chunk dropped by retention (which
// shifts queries from raw to rollup answers). Two equal watermarks around
// a query guarantee the node's store was not mutated in between, which is
// what a result cache needs to stay coherent with ingest. An unknown node
// reports 0.
func (db *DB) Watermark(node int) uint64 {
	sh := db.shard(node)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s := sh.series[node]; s != nil {
		// Each term is individually monotonic, so the sum is too, and a
		// sum equality implies component equality.
		return uint64(s.total) + uint64(s.dups) + uint64(s.drops)
	}
	return 0
}

// SealedHorizon returns the newest sealed timestamp for a node in
// seconds: appends at or before it can no longer change raw data (they
// are dropped as too old), so with raw retention disabled any window
// ending at or before the horizon is immutable. ok is false while nothing
// is sealed yet.
func (db *DB) SealedHorizon(node int) (t float64, ok bool) {
	sh := db.shard(node)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s := sh.series[node]; s != nil && len(s.chunks) > 0 {
		return toSec(s.sealedEnd()), true
	}
	return 0, false
}

// Latest returns a node's newest sample (timestamp in seconds and watts).
func (db *DB) Latest(node int) (t, w float64, err error) {
	sh := db.shard(node)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	s := sh.series[node]
	if s == nil || s.total == 0 {
		return 0, 0, fmt.Errorf("%w %d", ErrUnknownNode, node)
	}
	return toSec(s.pendT), s.pendW, nil
}

// RawRetention reports the store's raw-chunk retention horizon in
// seconds (0 = raw kept forever; see Options.RetainRaw).
func (db *DB) RawRetention() float64 { return db.opts.RetainRaw }

// Stats summarises the store's footprint.
type Stats struct {
	Nodes             int
	Samples           int   // retained raw samples
	Chunks            int   // sealed chunks
	CompressedBytes   int64 // sealed chunk payloads
	HeadBytes         int64 // open head windows (16 B/sample)
	RollupBytes       int64 // rollup buckets
	OutOfOrderDropped int   // samples older than the sealed horizon
	Duplicates        int   // duplicate timestamps overwritten
	// BytesPerSample is raw storage (compressed + head) per retained
	// sample — the number to compare against the 16 B/sample of flat
	// []float64 time/power slices.
	BytesPerSample float64
}

// Stats aggregates across all shards.
func (db *DB) Stats() Stats {
	var st Stats
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for _, s := range sh.series {
			st.Nodes++
			st.Samples += s.retained()
			st.Chunks += len(s.chunks)
			for _, c := range s.chunks {
				st.CompressedBytes += int64(len(c.data))
			}
			st.HeadBytes += int64(len(s.headT)) * 16
			for _, r := range s.rolls {
				st.RollupBytes += r.bytes()
			}
			st.OutOfOrderDropped += s.oo
			st.Duplicates += s.dups
		}
		sh.mu.RUnlock()
	}
	if st.Samples > 0 {
		st.BytesPerSample = float64(st.CompressedBytes+st.HeadBytes) / float64(st.Samples)
	}
	return st
}

// Resolutions returns the rollup widths this store maintains.
func (db *DB) Resolutions() []float64 {
	return append([]float64(nil), db.opts.Resolutions...)
}
