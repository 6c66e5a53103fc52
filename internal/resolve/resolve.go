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
//
// Nothing is ever evicted. Annotation enrichment (§6.1) only adds labels to
// the KB, so a memoised answer can only gain matches, and only from labels
// indexed after it was stored. Each entry records the store's label
// generation at which it is exact, and a hit on an older entry catches up
// from the labels indexed since (rdf.Store.MatchLabelSince).
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
	m  map[string]entry
}

// entry is one memoised answer and the store's LabelGen at which it is
// exact.
type entry struct {
	matches []rdf.LabelMatch
	gen     uint64
}

// Cache memoizes rdf.Store.MatchLabel keyed on the normalized cell value.
// It is safe for concurrent use under the store's single-writer contract:
// any number of goroutines may resolve concurrently while the store is
// quiescent. When the store gains labels (annotation enrichment does this
// between stages), each entry stored before them catches up on its next hit
// (see Resolve).
type Cache struct {
	kb        *rdf.Store
	threshold float64

	shards [shardCount]shard

	// misses counts the lookups that stored a key's first entry; hits
	// counts every other lookup, catch-ups included. A lookup that misses
	// but loses the race to store the key counts a hit, so the split is a
	// function of the keys resolved, not of the goroutine schedule.
	hits, misses atomic.Int64

	// tel is the pipeline observing resolver latency for the current run.
	// The cache outlives individual runs (a Cleaner keeps one across Clean
	// and Append), so it is attached and detached per run via SetTelemetry
	// and read atomically on the lookup path.
	tel atomic.Pointer[telemetry.Pipeline]
}

// New returns a cache over kb resolving at the given threshold. Lookups at a
// different threshold bypass the memo (see MatchLabel).
func New(kb *rdf.Store, threshold float64) *Cache {
	c := &Cache{kb: kb, threshold: threshold}
	for i := range c.shards {
		c.shards[i].m = make(map[string]entry)
	}
	return c
}

// SetTelemetry attaches the pipeline observing resolver latency (nil
// detaches). Safe to call concurrently with lookups; typically the run
// harness attaches before the run and detaches after.
func (c *Cache) SetTelemetry(tel *telemetry.Pipeline) {
	c.tel.Store(tel)
}

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
//
// A hit on an entry stored at an older label generation is a catch-up: the
// entry merges in the hits among the labels indexed since and is stored
// again at the current generation, keeping its slice when no new label
// matches. A catch-up counts as a hit. Label additions happen only in
// single-writer windows (KB load, annotation enrichment, KB deltas), so the
// generation read here is stable while readers run.
func (c *Cache) Resolve(value string) []rdf.LabelMatch {
	key := similarity.Normalize(value)
	gen := c.kb.LabelGen()
	sh := &c.shards[fnvMask(key)]
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		if e.gen == gen {
			return e.matches
		}
		matches, _ := sh.store(key, entry{c.kb.MatchLabelSince(key, c.threshold, e.gen, e.matches), gen})
		return matches
	}
	// The memo key IS the normalized value, so the miss path hands it to
	// MatchLabelNorm directly instead of having MatchLabel re-normalize it;
	// memoizing under the key collapses all spellings that normalize alike
	// ("S. Africa", "s africa") into one entry. Only misses are observed: a
	// hit is a map read, and timing it would drown the histogram in
	// nanosecond samples that say nothing about KB lookup cost.
	tel := c.tel.Load()
	mStart := tel.StartTimer()
	mSpan := tel.StartSpan("resolve-miss")
	matches := c.kb.MatchLabelNorm(key, c.threshold)
	mSpan.SetInt("matches", int64(len(matches)))
	mSpan.End()
	tel.ObserveSince(telemetry.HistResolverLookup, mStart)
	matches, stored := sh.store(key, entry{matches, gen})
	if stored {
		c.misses.Add(1)
	} else {
		c.hits.Add(1) // a racing reader stored the key first
	}
	return matches
}

// store memoises e under key and returns the memoised answer, reporting
// whether e was stored. An entry at least as new that a racing reader
// stored first wins, so readers that miss or catch up one key at once keep
// one canonical slice.
func (sh *shard) store(key string, e entry) ([]rdf.LabelMatch, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if prior, ok := sh.m[key]; ok && prior.gen >= e.gen {
		return prior.matches, false
	}
	sh.m[key] = e
	return e.matches, true
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
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
