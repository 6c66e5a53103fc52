// Latency histograms: atomic, mergeable, log-bucketed (power-of-two bucket
// edges). The stage timers answer "where did the run spend its time"; the
// histograms answer the distributional questions a serving deployment needs
// — what is the p99 crowd-question round-trip under fault injection, is the
// resolver cache absorbing the annotation fan-out — without storing one
// sample per operation.
//
// Recording is two atomic adds plus an atomic max; Record is safe from any
// goroutine, so the parallel stages share the pipeline's histograms the same
// way they share its counters. A nil *Histogram (or nil *Pipeline) is the
// disabled instrument: Record is a no-op and allocates nothing.

package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist identifies one pipeline latency histogram.
type Hist int

const (
	// HistCrowdQuestion is the full crowd-question round-trip (AskContext
	// entry to decision), including simulated latency, retry backoffs and
	// escalation assignments from the resilience layer.
	HistCrowdQuestion Hist = iota
	// HistRankJoinIter is one best-first expansion of the §4.3 rank join
	// (a heap pop plus child generation).
	HistRankJoinIter
	// HistAnnotateTuple is the per-tuple annotation step (§6.1 steps 1–2,
	// crowd consultation included) of a tuple the annotator decides; a
	// duplicate that replays its signature's verdict is not sampled.
	HistAnnotateTuple
	// HistRepairTopK is one erroneous row's top-k repair retrieval through
	// the inverted lists (§6.2, Algorithm 4).
	HistRepairTopK
	// HistResolverLookup is one label resolution that missed the run's
	// resolve.Cache and went to the KB (rdf.Store.MatchLabelNorm). The
	// frozen KB layer's memo, shared across jobs, may answer such a miss
	// without a fuzzy lookup, so a sample times a per-job miss, not
	// necessarily a fuzzy-index scan. Cache hits are not observed: a hit is
	// a map read, and its nanosecond samples would drown the histogram
	// (see resolve.Cache.Resolve).
	HistResolverLookup

	numHists
)

// String returns the histogram's stable snapshot name.
func (h Hist) String() string {
	switch h {
	case HistCrowdQuestion:
		return "crowd-question"
	case HistRankJoinIter:
		return "rank-join-iteration"
	case HistAnnotateTuple:
		return "annotate-tuple"
	case HistRepairTopK:
		return "repair-topk"
	case HistResolverLookup:
		return "resolver-lookup"
	default:
		return "hist-" + itoa(int(h))
	}
}

// itoa is strconv.Itoa for small non-negative ints without the import.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// histBuckets is the bucket count: bucket b covers [2^b, 2^(b+1)) nanoseconds
// (bucket 0 also absorbs sub-nanosecond values), so 40 buckets span 1ns to
// ~18 minutes — far beyond any per-operation latency the pipeline produces.
// The last bucket is open-ended.
const histBuckets = 40

// bucketOf maps a duration in nanoseconds to its bucket index.
func bucketOf(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketUpper is the inclusive upper edge of bucket b in nanoseconds.
func bucketUpper(b int) int64 {
	return int64(1)<<(b+1) - 1
}

// Histogram is an atomic, mergeable log-bucketed latency histogram. The zero
// value is ready to use; nil is the disabled instrument.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketOf(ns)].Add(1)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the summed observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNS.Load())
}

// Max returns the largest recorded observation (exact, not bucketed).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.maxNS.Load())
}

// Merge adds o's observations into h — the range-combining operation for
// histograms kept per fan-out range. o may be nil.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	h.count.Add(o.count.Load())
	h.sumNS.Add(o.sumNS.Load())
	m := o.maxNS.Load()
	for {
		cur := h.maxNS.Load()
		if m <= cur || h.maxNS.CompareAndSwap(cur, m) {
			break
		}
	}
	for b := range h.buckets {
		if n := o.buckets[b].Load(); n != 0 {
			h.buckets[b].Add(n)
		}
	}
}

// Quantile returns the q-quantile (q in [0,1]) by locating the smallest
// bucket containing that rank and interpolating linearly within it: the
// rank's position among the bucket's observations picks a point on
// [lower edge, upper edge] under a uniform-spread assumption. A rank that
// lands on the bucket's last observation degenerates to the upper edge,
// so the estimate still never underestimates a worst case hiding at the
// top of the bucket. The result is clamped to the observed maximum so a
// quantile never reads above the true worst case. Deterministic for a
// quiescent histogram; zero observations return 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(float64(n) * q))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cnt := h.buckets[b].Load()
		if cnt == 0 {
			continue
		}
		if cum+cnt >= rank {
			lower := int64(1) << b
			if b == 0 {
				lower = 0 // bucket 0 also absorbs sub-nanosecond values
			}
			upper := bucketUpper(b)
			pos := rank - cum // 1..cnt within this bucket
			est := lower + int64(math.Round(float64(upper-lower)*float64(pos)/float64(cnt)))
			if mx := h.maxNS.Load(); mx > 0 && est > mx {
				est = mx
			}
			return time.Duration(est)
		}
		cum += cnt
	}
	return time.Duration(h.maxNS.Load()) // counts raced ahead of buckets
}

// HistBucket is one non-empty bucket of a snapshotted histogram.
type HistBucket struct {
	// UpperNS is the bucket's inclusive upper edge in nanoseconds.
	UpperNS int64 `json:"upper_ns"`
	// Count is the number of observations in this bucket (non-cumulative).
	Count int64 `json:"count"`
}

// HistStat is one histogram's snapshot: percentiles for the -stats text
// block and -stats-json, raw buckets for the Prometheus exposition.
type HistStat struct {
	Name    string        `json:"name"`
	Count   int64         `json:"count"`
	Sum     time.Duration `json:"sum_ns"`
	P50     time.Duration `json:"p50_ns"`
	P95     time.Duration `json:"p95_ns"`
	P99     time.Duration `json:"p99_ns"`
	Max     time.Duration `json:"max_ns"`
	Buckets []HistBucket  `json:"buckets,omitempty"`
}

// stat snapshots the histogram under the given name.
func (h *Histogram) stat(name string) HistStat {
	s := HistStat{
		Name:  name,
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
	for b := 0; b < histBuckets; b++ {
		if n := h.buckets[b].Load(); n != 0 {
			s.Buckets = append(s.Buckets, HistBucket{UpperNS: bucketUpper(b), Count: n})
		}
	}
	return s
}

// StartTimer returns the start time for a later ObserveSince. Disabled
// pipelines return the zero Time without reading the clock.
func (p *Pipeline) StartTimer() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the time elapsed since start (from StartTimer) into
// histogram h. No-op when disabled.
func (p *Pipeline) ObserveSince(h Hist, start time.Time) {
	if p == nil {
		return
	}
	p.hists[h].Record(time.Since(start))
}
