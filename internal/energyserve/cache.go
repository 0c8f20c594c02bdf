package energyserve

import (
	"math"
	"sync"
)

// windowKey names one window query. The floats are kept as their bits, so
// the key is comparable without formatting and -0 and +0, whose bodies
// differ, stay distinct keys.
type windowKey struct {
	node        int
	t0, t1, res uint64
}

func keyOf(node int, t0, t1, res float64) windowKey {
	return windowKey{node, math.Float64bits(t0), math.Float64bits(t1), math.Float64bits(res)}
}

// cacheEntry is one serialized window answer, stamped with the node's
// ingest watermark at the time the answer was computed. The entry is a
// hit while the node's current watermark equals the stamp (nothing that
// could change any answer happened since), or while the whole window is
// provably sealed (see sealedValid).
type cacheEntry struct {
	body []byte
	wm   uint64
}

// cacheShard holds two bounded maps. A miss lands in probation; a key
// enters protected on its first hit. Eviction drops an arbitrary entry of
// the segment being inserted into and never crosses segments, so a scan of
// windows nobody asks for twice churns probation alone: the hot set stays
// resident and what the scan leaves behind fills an eighth of the cache.
// Within a segment eviction stays arbitrary — re-filling a dropped entry is
// one store query, which does not pay for LRU bookkeeping on the hit path.
type cacheShard struct {
	mu                   sync.Mutex
	probation, protected map[windowKey]cacheEntry
}

// The cache holds at most cacheCap entries on cacheShards lock stripes (a
// power of two); an eighth of each stripe's share is probation.
const (
	cacheShards = 16
	cacheCap    = 4096
	probCap     = cacheCap / cacheShards / 8
	protectCap  = cacheCap/cacheShards - probCap
)

type windowCache struct {
	shards [cacheShards]cacheShard
}

func newWindowCache() *windowCache {
	c := &windowCache{}
	for i := range c.shards {
		c.shards[i].probation = make(map[windowKey]cacheEntry)
		c.shards[i].protected = make(map[windowKey]cacheEntry)
	}
	return c
}

func (c *windowCache) shard(k windowKey) *cacheShard {
	// A multiplicative mix, indexed from the top bits: the low bits of a
	// round timestamp's float are all zero.
	const m = 0x9E3779B97F4A7C15
	h := (uint64(k.node)*m ^ k.t0) * m
	h = (h ^ k.t1) * m
	h = (h ^ k.res) * m
	return &c.shards[(h>>32)&(cacheShards-1)]
}

// insert stores e under k in a segment of at most limit entries.
func insert(seg map[windowKey]cacheEntry, limit int, k windowKey, e cacheEntry) {
	if _, exists := seg[k]; !exists && len(seg) >= limit {
		for old := range seg {
			delete(seg, old)
			break
		}
	}
	seg[k] = e
}

func (c *windowCache) get(k windowKey) (cacheEntry, bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.protected[k]
	if !ok {
		if e, ok = sh.probation[k]; ok {
			delete(sh.probation, k)
			insert(sh.protected, protectCap, k, e)
		}
	}
	return e, ok
}

func (c *windowCache) put(k windowKey, e cacheEntry) {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, hot := sh.protected[k]; hot {
		sh.protected[k] = e
		return
	}
	insert(sh.probation, probCap, k, e)
}
