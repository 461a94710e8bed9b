package metrics

import "time"

// MergeFrom folds src's observations into o as if every request src absorbed
// had been Added to o directly: counters, sums, goodput windows and sketch
// bucket counts are all additive, so the merged aggregator answers exactly
// what one aggregator fed the union stream would — except the exact-prefix
// percentile shortcut, which survives only for the first sketchExactPrefix
// observations in merge order (beyond it the sketch's α-bounded buckets
// answer, as for any large run). Merging is deterministic: merging the same
// sources in the same order always yields the same state, which is how the
// sharded simulation keeps `-j N` output byte-identical for every N —
// lanes are merged in lane order regardless of how many workers ran them.
//
// src is read under its own lock and left untouched. o and src must judge
// against the same SLO and use the same goodput window resolution.
func (o *Online) MergeFrom(src *Online) {
	if src == nil {
		return
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()

	o.count += src.count
	o.failed += src.failed
	o.ok += src.ok
	o.latSum += src.latSum
	if src.latMax > o.latMax {
		o.latMax = src.latMax
	}
	o.breakdown.MinExec += src.breakdown.MinExec
	o.breakdown.BatchWait += src.breakdown.BatchWait
	o.breakdown.QueueDelay += src.breakdown.QueueDelay
	o.breakdown.Interference += src.breakdown.Interference
	o.breakdown.ColdStart += src.breakdown.ColdStart
	o.breakdown.Total += src.breakdown.Total

	o.sketch.mergeFrom(&src.sketch)

	if src.totWin != nil {
		if n := len(src.totWin); n > len(o.totWin) {
			grownOK := make([]uint32, n)
			copy(grownOK, o.okWin)
			grownTot := make([]uint32, n)
			copy(grownTot, o.totWin)
			o.okWin, o.totWin = grownOK, grownTot
			if o.goodWindow == 0 {
				o.goodWindow = src.goodWindow
			}
		}
		for i, c := range src.totWin {
			o.totWin[i] += c
		}
		for i, c := range src.okWin {
			o.okWin[i] += c
		}
	}
}

// mergeFrom adds src's counts into b, widening b's dense range to cover
// src's. Both stores share the package α, hence the same bucket geometry.
func (b *logBuckets) mergeFrom(src *logBuckets) {
	b.n += src.n
	b.zeros += src.zeros
	if len(src.counts) == 0 {
		return
	}
	b.cover(src.lo, src.lo+len(src.counts))
	dst := b.counts[src.lo-b.lo:]
	for i, c := range src.counts {
		dst[i] += c
	}
}

// mergeFrom merges src's buckets and, while room remains, its exact prefix
// into s.
func (s *latencySketch) mergeFrom(src *latencySketch) {
	s.logBuckets.mergeFrom(&src.logBuckets)
	room := sketchExactPrefix - len(s.exact)
	s.exact = append(s.exact, src.exact[:min(room, len(src.exact))]...)
}

// MergeOnline folds the given aggregators, in order, into one fresh Online
// (judging against the first source's SLO and window resolution). Nil sources
// are skipped; an all-nil or empty slice yields an empty aggregator with a
// zero SLO.
func MergeOnline(parts []*Online) *Online {
	var slo, window time.Duration
	for _, p := range parts {
		if p != nil {
			slo, window = p.SLO, p.goodWindow
			break
		}
	}
	merged := NewOnline(slo, 0, 0)
	merged.goodWindow = window
	for _, p := range parts {
		merged.MergeFrom(p)
	}
	return merged
}

// Tee is an Aggregator that feeds every Add to both a primary and a mirror
// while answering every read from the primary alone. The sharded live mode
// uses it to give each lane its own Online (the per-lane Result) while the
// observability plane's shared Online sees the union stream for /metrics and
// burn-rate tracking.
type Tee struct {
	Primary Aggregator
	Mirror  Aggregator
}

// NewTee returns an aggregator duplicating Adds into mirror and reading from
// primary.
func NewTee(primary, mirror Aggregator) *Tee {
	return &Tee{Primary: primary, Mirror: mirror}
}

// Add implements Aggregator.
func (t *Tee) Add(r Record) {
	t.Primary.Add(r)
	if t.Mirror != nil {
		t.Mirror.Add(r)
	}
}

// Count implements Aggregator.
func (t *Tee) Count() int { return t.Primary.Count() }

// SLOCompliance implements Aggregator.
func (t *Tee) SLOCompliance() float64 { return t.Primary.SLOCompliance() }

// Violations implements Aggregator.
func (t *Tee) Violations() int { return t.Primary.Violations() }

// Percentile implements Aggregator.
func (t *Tee) Percentile(p float64) time.Duration { return t.Primary.Percentile(p) }

// Mean implements Aggregator.
func (t *Tee) Mean() time.Duration { return t.Primary.Mean() }

var _ Aggregator = (*Tee)(nil)
