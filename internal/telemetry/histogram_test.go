package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestBucketOfEdges(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10}, {1 << 39, histBuckets - 1},
		{1<<62 + 5, histBuckets - 1}, // beyond the last bucket: clamped
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	for b := 0; b < histBuckets-1; b++ {
		upper := bucketUpper(b)
		if got := bucketOf(upper); got != b {
			t.Errorf("upper edge %d of bucket %d lands in bucket %d", upper, b, got)
		}
		if got := bucketOf(upper + 1); got != b+1 {
			t.Errorf("value %d should open bucket %d, landed in %d", upper+1, b+1, got)
		}
	}
}

func TestHistogramQuantileDeterminism(t *testing.T) {
	var h Histogram
	// 100 samples: 50 in the [64,127] bucket, 45 in [1024,2047], 5 in
	// [65536,131071]. Every pinned rank lands on its bucket's last
	// observation, so interpolation degenerates to the bucket upper edge,
	// clamped to the observed max.
	for i := 0; i < 50; i++ {
		h.Record(100 * time.Nanosecond)
	}
	for i := 0; i < 45; i++ {
		h.Record(1500 * time.Nanosecond)
	}
	for i := 0; i < 5; i++ {
		h.Record(100_000 * time.Nanosecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	wantSum := int64(50*100 + 45*1500 + 5*100_000)
	if got := h.Sum(); got != time.Duration(wantSum) {
		t.Fatalf("Sum = %v, want %dns", got, wantSum)
	}
	if got := h.Max(); got != 100_000*time.Nanosecond {
		t.Fatalf("Max = %v, want 100µs", got)
	}
	// rank(0.5) = 50 → first bucket; rank(0.95) = 95 → second bucket;
	// rank(0.99) = 99 → third bucket, clamped to max.
	if got := h.Quantile(0.50); got != 127*time.Nanosecond {
		t.Errorf("P50 = %v, want 127ns", got)
	}
	if got := h.Quantile(0.95); got != 2047*time.Nanosecond {
		t.Errorf("P95 = %v, want 2047ns", got)
	}
	if got := h.Quantile(0.99); got != 100_000*time.Nanosecond {
		t.Errorf("P99 = %v, want clamped to max 100µs", got)
	}
	// Repeated evaluation is deterministic.
	if a, b := h.Quantile(0.95), h.Quantile(0.95); a != b {
		t.Errorf("Quantile not deterministic: %v vs %v", a, b)
	}
}

// TestHistogramQuantileInterpolation pins mid-bucket quantiles: a rank that
// falls partway into a bucket interpolates linearly between the bucket's
// edges instead of snapping to the upper edge.
func TestHistogramQuantileInterpolation(t *testing.T) {
	var h Histogram
	// 100 samples: 20 in [64,127], 60 in [1024,2047], 20 in [65536,131071].
	// The large samples sit exactly on their bucket's upper edge so the
	// max clamp never bites and the interpolated values show through.
	for i := 0; i < 20; i++ {
		h.Record(100 * time.Nanosecond)
	}
	for i := 0; i < 60; i++ {
		h.Record(1500 * time.Nanosecond)
	}
	for i := 0; i < 20; i++ {
		h.Record(131071 * time.Nanosecond)
	}
	// rank(0.50) = 50: position 30 of 60 in [1024,2047]
	//   → 1024 + round(1023·30/60) = 1536.
	if got := h.Quantile(0.50); got != 1536*time.Nanosecond {
		t.Errorf("P50 = %v, want 1536ns", got)
	}
	// rank(0.95) = 95: position 15 of 20 in [65536,131071]
	//   → 65536 + round(65535·15/20) = 114687.
	if got := h.Quantile(0.95); got != 114687*time.Nanosecond {
		t.Errorf("P95 = %v, want 114687ns", got)
	}
	// rank(0.99) = 99: position 19 of 20 in [65536,131071]
	//   → 65536 + round(65535·19/20) = 127794.
	if got := h.Quantile(0.99); got != 127794*time.Nanosecond {
		t.Errorf("P99 = %v, want 127794ns", got)
	}
	// A rank on a bucket's first observation interpolates one step above
	// the lower edge: rank(0.21) = 21 is position 1 of 60 in [1024,2047]
	//   → 1024 + round(1023/60) = 1041.
	if got := h.Quantile(0.21); got != 1041*time.Nanosecond {
		t.Errorf("P21 = %v, want 1041ns", got)
	}
}

// TestHistogramQuantileInterpolationClamp verifies interpolation still never
// reads above the observed maximum.
func TestHistogramQuantileInterpolationClamp(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Record(2000 * time.Nanosecond) // bucket [1024,2047], max 2000
	}
	// rank(0.50) = 5: position 5 of 10 → 1024 + round(1023/2) = 1536.
	if got := h.Quantile(0.50); got != 1536*time.Nanosecond {
		t.Errorf("P50 = %v, want 1536ns", got)
	}
	// rank(0.99) = 10: upper edge 2047, clamped to the observed max.
	if got := h.Quantile(0.99); got != 2000*time.Nanosecond {
		t.Errorf("P99 = %v, want clamped to max 2000ns", got)
	}
}

func TestHistogramQuantileEmptyAndNil(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	var hp *Histogram
	if got := hp.Quantile(0.5); got != 0 {
		t.Errorf("nil Quantile = %v, want 0", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Record(100 * time.Nanosecond)
		b.Record(10_000 * time.Nanosecond)
	}
	a.Merge(&b)
	if got := a.Count(); got != 20 {
		t.Fatalf("merged Count = %d, want 20", got)
	}
	if got := a.Max(); got != 10_000*time.Nanosecond {
		t.Fatalf("merged Max = %v, want 10µs", got)
	}
	if got := a.Quantile(0.5); got != 127*time.Nanosecond {
		t.Errorf("merged P50 = %v, want 127ns", got)
	}
	if got := a.Quantile(0.99); got != 10_000*time.Nanosecond {
		t.Errorf("merged P99 = %v, want 10µs (clamped to max)", got)
	}
	a.Merge(nil) // no-op
	if got := a.Count(); got != 20 {
		t.Fatalf("Merge(nil) changed Count to %d", got)
	}
}

// TestHistogramConcurrentRecord exercises the atomic Record path under the
// race detector: N goroutines hammer one histogram (and the same Pipeline
// hist through Observe) and the totals must balance.
func TestHistogramConcurrentRecord(t *testing.T) {
	p := New()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p.hists[HistResolverLookup].Record(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	h := &p.hists[HistResolverLookup]
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("Count = %d, want %d", got, workers*perWorker)
	}
	var inBuckets int64
	for _, b := range h.stat("x").Buckets {
		inBuckets += b.Count
	}
	if inBuckets != workers*perWorker {
		t.Fatalf("bucket sum = %d, want %d", inBuckets, workers*perWorker)
	}
	if h.Max() != time.Duration(7*1000+perWorker-1)*time.Nanosecond {
		t.Fatalf("Max = %v", h.Max())
	}
}

func TestSnapshotHistograms(t *testing.T) {
	p := New()
	p.hists[HistCrowdQuestion].Record(5 * time.Millisecond)
	p.ObserveSince(HistAnnotateTuple, time.Now().Add(-time.Millisecond))
	snap := p.Snapshot()
	if len(snap.Hists) != int(numHists) {
		t.Fatalf("snapshot has %d hists, want %d", len(snap.Hists), numHists)
	}
	hq := snap.Hists[HistCrowdQuestion]
	if hq.Name != "crowd-question" || hq.Count != 1 {
		t.Fatalf("crowd-question hist missing or wrong: %+v", hq)
	}
	if hq.P50 <= 0 || hq.Max < 5*time.Millisecond {
		t.Fatalf("crowd-question percentiles wrong: %+v", hq)
	}
	at := snap.Hists[HistAnnotateTuple]
	if at.Name != "annotate-tuple" || at.Count != 1 || at.Sum < 500*time.Microsecond {
		t.Fatalf("annotate-tuple hist wrong: %+v", at)
	}
}

func TestHistNames(t *testing.T) {
	want := map[Hist]string{
		HistCrowdQuestion:  "crowd-question",
		HistRankJoinIter:   "rank-join-iteration",
		HistAnnotateTuple:  "annotate-tuple",
		HistRepairTopK:     "repair-topk",
		HistResolverLookup: "resolver-lookup",
	}
	if len(want) != int(numHists) {
		t.Fatalf("test covers %d hists, package declares %d", len(want), numHists)
	}
	for h, name := range want {
		if h.String() != name {
			t.Errorf("Hist(%d).String() = %q, want %q", h, h.String(), name)
		}
	}
}
