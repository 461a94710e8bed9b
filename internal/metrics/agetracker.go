package metrics

import "time"

// ageMinSamples is how many completed-request latencies the tracker wants
// before its percentile estimate is trustworthy; below it Ready() is false
// and callers fall back to a static threshold (the hedge policy uses a
// fraction of the SLO).
const ageMinSamples = 32

// ageRecomputeEvery bounds the staleness of the cached threshold: the
// percentile is re-derived from the buckets at most once per this many
// observations, keeping Add amortized O(1) and Threshold exactly O(1).
const ageRecomputeEvery = 64

// AgeTracker is the hedge policy's online latency-percentile estimator: it
// ingests every completed request's latency and answers "how old must a
// request be before it is slower than p% of its peers?" — the age at which
// a backup copy is launched. It counts in the same log-bucket store as the
// Online sketch (bucket midpoint within SketchAlpha of every member) and
// caches its answer, so Add and Threshold are allocation-free on the
// dispatch hot path once the latency range is covered. Deterministic: same
// observations, same thresholds.
type AgeTracker struct {
	logBuckets
	pct     float64 // target percentile, in (0, 100]
	pending int     // adds since the cached threshold was derived
	cached  time.Duration
}

// NewAgeTracker returns a tracker for the given percentile (e.g. 95 hedges
// requests older than the p95 latency). Percentiles outside (0,100] are
// clamped to 100.
func NewAgeTracker(pct float64) *AgeTracker {
	if !(pct > 0 && pct <= 100) {
		pct = 100
	}
	return &AgeTracker{logBuckets: newLogBuckets(SketchAlpha), pct: pct}
}

// Add records one completed request's latency. Amortized O(1) (a bucket
// walk every ageRecomputeEvery observations).
func (t *AgeTracker) Add(v time.Duration) {
	t.add(v)
	t.pending++
	if t.pending >= ageRecomputeEvery || t.n == ageMinSamples {
		t.recompute()
	}
}

// Ready reports whether enough observations have accumulated for Threshold
// to be meaningful; before that callers should hedge on a static fallback.
func (t *AgeTracker) Ready() bool { return t.n >= ageMinSamples }

// N returns the number of observations ingested.
func (t *AgeTracker) N() uint64 { return t.n }

// Threshold returns the tracked percentile of all observed latencies, from
// the cache (at most ageRecomputeEvery observations stale). Zero until
// Ready.
func (t *AgeTracker) Threshold() time.Duration {
	if !t.Ready() {
		return 0
	}
	return t.cached
}

// recompute re-derives the cached nearest-rank percentile from the buckets.
func (t *AgeTracker) recompute() {
	t.pending = 0
	t.cached = t.value(uint64(nearestRank(t.pct/100, int(t.n))))
}
