package metrics

import (
	"math"
	"testing"
	"time"
)

// The tracker must agree with the reference sketch (same bucket math, no
// exact prefix) within the structural α guarantee, across distributions.
func TestAgeTrackerMatchesSketchQuantile(t *testing.T) {
	dists := map[string]func(i int) time.Duration{
		"uniform": func(i int) time.Duration { return time.Duration(i+1) * time.Millisecond },
		"bimodal": func(i int) time.Duration { return time.Duration(1+(i%2)*999) * time.Millisecond },
		"heavytail": func(i int) time.Duration {
			return time.Duration(float64(time.Millisecond) * math.Pow(1.01, float64(i%1200)))
		},
		// Past ~6 h, beyond any fixed 1 ns..1000 s bucket range.
		"hours": func(i int) time.Duration { return time.Duration(7+i%5) * time.Hour },
	}
	for name, gen := range dists {
		for _, pct := range []float64{50, 90, 95, 99} {
			tr := NewAgeTracker(pct)
			sk := newLatencySketch(SketchAlpha)
			for i := 0; i < 5000; i++ {
				v := gen(i)
				tr.Add(v)
				sk.add(v)
			}
			tr.recompute() // drain the staleness window for an exact comparison
			got, want := tr.Threshold(), sk.quantile(pct/100)
			if rel := math.Abs(float64(got-want)) / float64(want); rel > 2*SketchAlpha {
				t.Errorf("%s p%v: tracker %v vs sketch %v (rel err %.4f)", name, pct, got, want, rel)
			}
		}
	}
}

// Before ageMinSamples observations the tracker declines to answer; the
// hedge policy must fall back to its static SLO-derived threshold.
func TestAgeTrackerReadyGate(t *testing.T) {
	tr := NewAgeTracker(95)
	for i := 0; i < ageMinSamples-1; i++ {
		tr.Add(time.Duration(i+1) * time.Millisecond)
		if tr.Ready() || tr.Threshold() != 0 {
			t.Fatalf("tracker ready after only %d samples", i+1)
		}
	}
	tr.Add(time.Millisecond)
	if !tr.Ready() || tr.Threshold() <= 0 {
		t.Fatal("tracker not ready at the minimum sample count")
	}
}

// The cached threshold goes stale by at most ageRecomputeEvery adds.
func TestAgeTrackerStalenessBounded(t *testing.T) {
	tr := NewAgeTracker(99)
	for i := 0; i < 1000; i++ {
		tr.Add(10 * time.Millisecond)
	}
	before := tr.Threshold()
	// A regime shift: every new latency is 100× slower.
	for i := 0; i < 2*ageRecomputeEvery; i++ {
		tr.Add(time.Second)
	}
	if tr.Threshold() == before {
		t.Fatal("threshold never recomputed after a regime shift")
	}
}

// Extremes: the largest Duration and non-positive latencies neither index
// out of bounds nor read back as a negative threshold, even where the top
// bucket's midpoint lies past the largest Duration (p99 here).
func TestAgeTrackerClampsExtremes(t *testing.T) {
	for _, pct := range []float64{50, 99} {
		tr := NewAgeTracker(pct)
		for i := 0; i < ageMinSamples*2; i++ {
			tr.Add(time.Duration(math.MaxInt64))
			tr.Add(-time.Second)
			tr.Add(0)
			tr.Add(time.Nanosecond)
		}
		if !tr.Ready() {
			t.Fatal("tracker not ready")
		}
		if got := tr.Threshold(); got < 0 {
			t.Fatalf("p%v: negative threshold %v", pct, got)
		}
	}
}

// Percentiles outside (0,100] clamp to 100 rather than producing NaN ranks.
func TestAgeTrackerClampsPercentile(t *testing.T) {
	for _, pct := range []float64{-5, 0, 150, math.NaN()} {
		tr := NewAgeTracker(pct)
		for i := 0; i < ageMinSamples*2; i++ {
			tr.Add(time.Duration(i+1) * time.Millisecond)
		}
		if got := tr.Threshold(); got <= 0 {
			t.Fatalf("pct %v: threshold %v", pct, got)
		}
	}
}

// Add and Threshold sit on the dispatch hot path: both must be
// allocation-free in steady state.
func TestAgeTrackerAllocFree(t *testing.T) {
	tr := NewAgeTracker(95)
	v := 10 * time.Millisecond
	if allocs := testing.AllocsPerRun(1000, func() {
		tr.Add(v)
		_ = tr.Threshold()
	}); allocs != 0 {
		t.Fatalf("Add+Threshold allocated %.1f times per op", allocs)
	}
}

// Same observations in the same order yield the same thresholds — the
// determinism contract the sharded engine relies on.
func TestAgeTrackerDeterministic(t *testing.T) {
	run := func() []time.Duration {
		tr := NewAgeTracker(90)
		var out []time.Duration
		for i := 0; i < 500; i++ {
			tr.Add(time.Duration((i*7919)%100+1) * time.Millisecond)
			out = append(out, tr.Threshold())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("thresholds diverge at observation %d: %v vs %v", i, a[i], b[i])
		}
	}
}
