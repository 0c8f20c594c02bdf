package energyserve

import (
	"sync"

	"davide/internal/obs"
)

// quotaTable enforces per-tenant token buckets: each tenant refills at
// rate tokens/s up to burst, every request costs one token. rate <= 0
// disables enforcement. The clock is injected so tests can drive refill
// deterministically and assert exact reject counts.
type quotaTable struct {
	rate, burst float64
	now         func() float64
	reg         *obs.Registry
	shards      [16]quotaShard
}

type quotaShard struct {
	mu      sync.Mutex
	buckets map[string]*bucket
	sweepAt int // table size at which the next insert sweeps first
}

type bucket struct {
	tokens  float64
	last    float64
	rejects *obs.Counter // nil until the tenant's first reject, and without a registry
}

// sweepFloor is the stripe size from which an insert first drops the
// buckets that have refilled to burst: the tenant name is the client's to
// choose, and a full bucket says nothing a fresh one would not. What stays
// is the tenants that spent a token in the last burst/rate seconds; the
// threshold doubles over what a sweep leaves, so sweeps stay amortised O(1).
const sweepFloor = 1024

func newQuotaTable(rate, burst float64, now func() float64, reg *obs.Registry) *quotaTable {
	t := &quotaTable{rate: rate, burst: burst, now: now, reg: reg}
	for i := range t.shards {
		t.shards[i] = quotaShard{buckets: make(map[string]*bucket), sweepAt: sweepFloor}
	}
	return t
}

func (t *quotaTable) shard(tenant string) *quotaShard {
	h := uint32(2166136261)
	for i := 0; i < len(tenant); i++ {
		h = (h ^ uint32(tenant[i])) * 16777619
	}
	return &t.shards[h&uint32(len(t.shards)-1)]
}

// allow spends one token for the tenant. On refusal it returns the time
// in seconds until a token exists — the Retry-After the handler sends.
func (t *quotaTable) allow(tenant string) (ok bool, wait float64) {
	if t.rate <= 0 {
		return true, 0
	}
	sh := t.shard(tenant)
	sh.mu.Lock()
	now := t.now()
	b := sh.buckets[tenant]
	if b == nil {
		if len(sh.buckets) >= sh.sweepAt {
			for name, old := range sh.buckets {
				if old.tokens+(now-old.last)*t.rate >= t.burst {
					delete(sh.buckets, name)
				}
			}
			sh.sweepAt = max(sweepFloor, 2*len(sh.buckets))
		}
		b = &bucket{tokens: t.burst, last: now}
		sh.buckets[tenant] = b
	}
	b.tokens += (now - b.last) * t.rate
	if b.tokens > t.burst {
		b.tokens = t.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		sh.mu.Unlock()
		return true, 0
	}
	wait = (1 - b.tokens) / t.rate
	if b.rejects == nil && t.reg != nil {
		// Registered on the first reject, not the first request: a name
		// that is never refused never becomes a series on /metrics.
		b.rejects = t.reg.CounterOf(
			obs.Key("davide_api_quota_rejects_total", "tenant", tenant), obs.Volatile())
	}
	rejects := b.rejects
	sh.mu.Unlock()
	if rejects != nil {
		rejects.Inc()
	}
	return false, wait
}
