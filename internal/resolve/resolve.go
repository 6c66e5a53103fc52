// Package resolve provides the per-run entity-resolution layer: a
// concurrency-safe, memoized cache over fuzzy label lookup.
//
// Candidate generation (§4.1) and annotation coverage (§6.1) resolve table
// cell strings to KB resources. Real tables repeat values heavily (a Capital
// column mentions each city once per country row, a Country column far more
// often), so resolving each distinct value once and memoizing the answer
// removes most of the fuzzy-lookup work. The cache is built once per Cleaner
// and threaded through discovery and annotation; both see the same memo, so
// a value resolved during discovery is free during annotation. Repair
// (§6.2) does not resolve labels: its inverted lists are keyed on
// similarity.Normalize of the instance-graph values.
//
// The cache is the per-job tier of two. Its misses go to
// rdf.Store.MatchLabelNorm, where a frozen KB layer (the job server's
// pristine KB, or an incremental session's snapshot) memoises its part of
// every lookup for all the stores that read it. A Cache holds merged
// answers that include the labels its own KB minted, so it is never shared
// across jobs; the frozen layer's memo is.
package resolve

import (
	"sync"
	"sync/atomic"

	"katara/internal/rdf"
	"katara/internal/similarity"
	"katara/internal/telemetry"
)

// Source is anything that can resolve a cell value to KB resources.
// *rdf.Store and *Cache both satisfy it; pipeline stages accept a Source so
// they run identically with or without caching.
type Source interface {
	MatchLabel(value string, threshold float64) []rdf.LabelMatch
}

// shardCount is a power of two so shard selection is a mask. 16 shards keeps
// lock contention negligible at the worker counts discovery uses.
const shardCount = 16

type shard struct {
	mu sync.RWMutex
	m  map[string][]rdf.LabelMatch
}

// Cache memoizes rdf.Store.MatchLabel keyed on the normalized cell value.
// It is safe for concurrent use under the store's single-writer contract:
// any number of goroutines may resolve concurrently while the store is
// quiescent; if the store gains labels (annotation enrichment does this
// between stages), the cache notices via Store.LabelGen and evicts the
// entries the new labels can affect (see sync).
type Cache struct {
	kb        *rdf.Store
	threshold float64

	gen     atomic.Uint64 // label generation the memo was built against
	flushMu sync.Mutex    // serialises syncs so racing readers sync once

	shards [shardCount]shard

	// Reverse index over memoised keys, for per-label invalidation: given a
	// newly indexed label, a relaxed trigram probe finds every cached value
	// the label could now match (see sync). keysIx is single-writer
	// (similarity.Index.Add is not concurrency-safe), so keysMu serialises
	// both registration and probes; keys are never removed — the index is a
	// monotone over-approximation of the live memo, and deleting a key that
	// has already been evicted is a no-op.
	keysMu   sync.Mutex
	keysIx   *similarity.Index
	keysSeen map[string]bool

	hits, misses atomic.Int64
	// invalidations counts individually evicted memo entries; flushes counts
	// wholesale memo rebuilds (the fallback when the store's bounded label
	// log has slid past our generation).
	invalidations, flushes atomic.Int64

	// tel is the pipeline observing resolver latency for the current run.
	// The cache outlives individual runs (a Cleaner keeps one across Clean
	// and Append), so it is attached and detached per run via SetTelemetry
	// and read atomically on the lookup path.
	tel atomic.Pointer[telemetry.Pipeline]
}

// New returns a cache over kb resolving at the given threshold. Lookups at a
// different threshold bypass the memo (see MatchLabel).
func New(kb *rdf.Store, threshold float64) *Cache {
	c := &Cache{kb: kb, threshold: threshold, keysIx: similarity.NewIndex(), keysSeen: make(map[string]bool)}
	c.gen.Store(kb.LabelGen())
	for i := range c.shards {
		c.shards[i].m = make(map[string][]rdf.LabelMatch)
	}
	return c
}

// SetTelemetry attaches the pipeline observing resolver latency (nil
// detaches). Safe to call concurrently with lookups; typically the run
// harness attaches before the run and detaches after.
func (c *Cache) SetTelemetry(tel *telemetry.Pipeline) {
	c.tel.Store(tel)
}

// KB returns the underlying store.
func (c *Cache) KB() *rdf.Store { return c.kb }

// Threshold returns the threshold the memo is keyed for.
func (c *Cache) Threshold() float64 { return c.threshold }

// MatchLabel implements Source. Calls at the cache's threshold are memoized;
// calls at any other threshold fall through to the store uncached, so a
// Cache can stand in for its store anywhere without changing results.
func (c *Cache) MatchLabel(value string, threshold float64) []rdf.LabelMatch {
	if threshold != c.threshold {
		return c.kb.MatchLabel(value, threshold)
	}
	return c.Resolve(value)
}

// Resolve returns the KB resources matching value at the cache's threshold.
// The returned slice is shared with the memo; callers must not mutate it.
func (c *Cache) Resolve(value string) []rdf.LabelMatch {
	c.sync()
	key := similarity.Normalize(value)
	sh := &c.shards[fnvMask(key)]
	sh.mu.RLock()
	matches, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return matches
	}
	c.misses.Add(1)
	// The memo key IS the normalized value, so the miss path hands it to
	// MatchLabelNorm directly instead of having MatchLabel re-normalize it;
	// memoizing under the key collapses all spellings that normalize alike
	// ("S. Africa", "s africa") into one entry. Only misses are observed: a
	// hit is a map read, and timing it would drown the histogram in
	// nanosecond samples that say nothing about KB lookup cost.
	tel := c.tel.Load()
	mStart := tel.StartTimer()
	mSpan := tel.StartSpan("resolve-miss")
	matches = c.kb.MatchLabelNorm(key, c.threshold)
	mSpan.SetInt("matches", int64(len(matches)))
	mSpan.End()
	tel.ObserveSince(telemetry.HistResolverLookup, mStart)
	sh.mu.Lock()
	inserted := false
	if prior, ok := sh.m[key]; ok {
		matches = prior // another goroutine raced us; keep one canonical slice
	} else {
		sh.m[key] = matches
		inserted = true
	}
	sh.mu.Unlock()
	if inserted {
		c.indexKey(key)
	}
	return matches
}

// indexKey registers a memoised key in the reverse invalidation index,
// exactly once per distinct key over the cache's lifetime.
func (c *Cache) indexKey(key string) {
	c.keysMu.Lock()
	if !c.keysSeen[key] {
		c.keysSeen[key] = true
		c.keysIx.Add(key)
	}
	c.keysMu.Unlock()
}

// sync brings the memo up to date if labels were added to the store since it
// was built. Label additions happen only in single-writer windows (KB load,
// annotation enrichment, KB deltas), so readers observing a stale generation
// here are already synchronized with the writer by the store contract.
//
// Invalidation is per label: for every label indexed since our generation,
// evict exactly the memo entries whose answer could have changed — the entry
// keyed on the label's own normalisation (it now has an exact match) plus
// every cached value within the score threshold of the new label, found by a
// relaxed reverse trigram probe (a provable superset of the forward lookup's
// candidates, see similarity.Index.LookupNormalizedRelaxed). Everything else
// keeps its memoised answer: a label can only ever ADD matches for values it
// scores against, so untouched entries are still exact. Only when the
// store's bounded label log has slid past our generation does the cache fall
// back to the old wholesale flush.
func (c *Cache) sync() {
	labelGen := c.kb.LabelGen()
	if c.gen.Load() == labelGen {
		return
	}
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	cur := c.gen.Load()
	if cur == labelGen {
		return // another goroutine synced while we waited
	}
	labels, ok := c.kb.LabelsSince(cur)
	if !ok {
		c.flushes.Add(1)
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			sh.m = make(map[string][]rdf.LabelMatch)
			sh.mu.Unlock()
		}
		c.gen.Store(labelGen)
		return
	}
	for _, norm := range labels {
		c.invalidateLabel(norm)
	}
	c.gen.Store(labelGen)
}

// invalidateLabel evicts every memo entry the newly indexed label (already
// normalised) could affect.
func (c *Cache) invalidateLabel(norm string) {
	c.keysMu.Lock()
	cands := c.keysIx.LookupNormalizedRelaxed(norm, c.threshold)
	keys := make([]string, len(cands))
	for i, cand := range cands {
		keys[i] = c.keysIx.Value(cand.ID)
	}
	c.keysMu.Unlock()
	c.evict(norm)
	for _, key := range keys {
		if key != norm {
			c.evict(key)
		}
	}
}

// evict removes one memo entry if present.
func (c *Cache) evict(key string) {
	sh := &c.shards[fnvMask(key)]
	sh.mu.Lock()
	if _, ok := sh.m[key]; ok {
		delete(sh.m, key)
		c.invalidations.Add(1)
	}
	sh.mu.Unlock()
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// SyncStats returns the cumulative per-label invalidation count (memo
// entries individually evicted) and wholesale flush count (the label-log
// truncation fallback) — the observability hooks the invalidation
// regression tests pin.
func (c *Cache) SyncStats() (invalidations, flushes int64) {
	return c.invalidations.Load(), c.flushes.Load()
}

// Len returns the number of memoized values.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// fnvMask hashes key (FNV-1a) and masks it down to a shard index.
func fnvMask(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h & (shardCount - 1)
}
