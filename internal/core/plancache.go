package core

import (
	"sync/atomic"

	"gofusion/internal/logical"
	"gofusion/internal/memory"
)

// planCache memoizes optimized logical plans of repeated queries, keyed
// on the print-stable SQL normalization plus every session knob that
// changes planning (see SessionContext.planCacheKey). A hit skips
// parsing-adjacent work, logical planning, and the optimizer pipeline;
// physical planning always reruns, because physical plans embed one-shot
// per-execution state (prepared ScanResults whose partitions may each be
// opened at most once), so a cached physical plan could never safely be
// executed twice. Re-lowering per execution is what makes cached plans
// re-instantiable: every execution gets fresh streams, fresh exchanges,
// and fresh metrics from the same immutable optimized logical plan.
//
// Entries record the catalog version they were planned under: a logical
// plan holds resolved TableProvider snapshots, so any registration or
// write (DDL, INSERT, COPY, stream append — all bump a version counter)
// makes the entry stale. Stale entries are dropped on lookup.
type planCache struct {
	entries *memory.LRU[string, planEntry]

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

type planEntry struct {
	version int64
	plan    logical.Plan
}

// PlanCacheStats is a snapshot of plan-cache activity.
type PlanCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
}

// defaultPlanCacheEntries bounds the cache when the session config does
// not set PlanCacheEntries.
const defaultPlanCacheEntries = 256

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = defaultPlanCacheEntries
	}
	return &planCache{entries: memory.NewLRU[string, planEntry](capacity)}
}

// get returns the cached optimized plan for key if it was planned under
// the current catalog version. A version mismatch drops the entry (the
// provider snapshot inside it is stale) and counts as an invalidation.
func (pc *planCache) get(key string, version int64) (logical.Plan, bool) {
	ent, ok := pc.entries.Get(key)
	if !ok {
		pc.misses.Add(1)
		return nil, false
	}
	if ent.version != version {
		// A put racing in between Get and Delete loses its fresh entry;
		// that costs one re-plan, never a stale plan.
		pc.entries.Delete(key)
		pc.invalidations.Add(1)
		pc.misses.Add(1)
		return nil, false
	}
	pc.hits.Add(1)
	return ent.plan, true
}

// put memoizes an optimized plan computed under the given catalog
// version, evicting the least recently used entry past capacity.
func (pc *planCache) put(key string, version int64, plan logical.Plan) {
	pc.entries.Put(key, planEntry{version: version, plan: plan})
}

// Stats snapshots hit/miss/invalidation counters and residency.
func (pc *planCache) Stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          pc.hits.Load(),
		Misses:        pc.misses.Load(),
		Invalidations: pc.invalidations.Load(),
		Entries:       pc.entries.Len(),
	}
}
