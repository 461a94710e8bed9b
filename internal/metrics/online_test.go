package metrics

import (
	"math"
	mrand "math/rand"
	"testing"
	"time"
)

// feedBoth generates n seeded records with failures and a long latency tail
// and adds each to both aggregators, returning them.
func feedBoth(n int, seed int64, slo time.Duration) (*Collector, *Online) {
	r := mrand.New(mrand.NewSource(seed))
	col := NewCollector(slo)
	on := NewOnline(slo, time.Duration(n)*time.Millisecond, DefaultGoodputWindow)
	for i := 0; i < n; i++ {
		// Log-normal-ish latency with a heavy tail.
		lat := time.Duration(math.Exp(3+1.2*r.NormFloat64()) * float64(time.Millisecond))
		rec := Record{
			Arrival:      time.Duration(i) * time.Millisecond,
			Latency:      lat,
			MinExec:      lat / 2,
			BatchWait:    lat / 8,
			QueueDelay:   lat / 4,
			Interference: lat / 16,
			ColdStart:    lat / 16,
			Failed:       r.Float64() < 0.02,
		}
		col.Add(rec)
		on.Add(rec)
	}
	return col, on
}

// TestOnlineExactCounters: everything the Online aggregator tracks exactly
// (counts, compliance, violations, mean, max, breakdown means, goodput over
// aligned windows) must match the exact Collector bit-for-bit.
func TestOnlineExactCounters(t *testing.T) {
	col, on := feedBoth(20000, 42, 80*time.Millisecond)

	if on.Count() != col.Count() {
		t.Errorf("Count = %d, want %d", on.Count(), col.Count())
	}
	if on.SLOCompliance() != col.SLOCompliance() {
		t.Errorf("SLOCompliance = %v, want %v", on.SLOCompliance(), col.SLOCompliance())
	}
	if on.Violations() != col.Violations() {
		t.Errorf("Violations = %d, want %d", on.Violations(), col.Violations())
	}
	if on.Mean() != col.Mean() {
		t.Errorf("Mean = %v, want %v", on.Mean(), col.Mean())
	}
	for _, w := range []struct{ from, to time.Duration }{
		{0, time.Second},
		{2 * time.Second, 5 * time.Second},
		{0, 20 * time.Second},
	} {
		if got, want := on.GoodputRPS(w.from, w.to), col.GoodputRPS(w.from, w.to); got != want {
			t.Errorf("GoodputRPS(%v,%v) = %v, want %v", w.from, w.to, got, want)
		}
		if got, want := on.ArrivalRPS(w.from, w.to), col.ArrivalRPS(w.from, w.to); got != want {
			t.Errorf("ArrivalRPS(%v,%v) = %v, want %v", w.from, w.to, got, want)
		}
	}
}

// TestOnlineEmptyMatchesCollector: zero-request semantics must agree.
func TestOnlineEmptyMatchesCollector(t *testing.T) {
	col := NewCollector(time.Second)
	on := NewOnline(time.Second, time.Minute, DefaultGoodputWindow)
	if on.SLOCompliance() != col.SLOCompliance() {
		t.Errorf("empty SLOCompliance = %v, want %v", on.SLOCompliance(), col.SLOCompliance())
	}
	if on.Percentile(99) != col.Percentile(99) {
		t.Errorf("empty Percentile = %v, want %v", on.Percentile(99), col.Percentile(99))
	}
	if on.Mean() != col.Mean() {
		t.Errorf("empty Mean = %v, want %v", on.Mean(), col.Mean())
	}
}

// TestOnlineTinyRunsExactPercentiles: at or under the sketch's exact prefix
// the Online aggregator must report the Collector's exact nearest-rank
// percentiles.
func TestOnlineTinyRunsExactPercentiles(t *testing.T) {
	for n := 1; n <= 4; n++ {
		col := NewCollector(time.Second)
		on := NewOnline(time.Second, time.Minute, 0)
		lats := []time.Duration{40, 10, 30, 20}
		for i := 0; i < n; i++ {
			rec := Record{Latency: lats[i] * time.Millisecond}
			col.Add(rec)
			on.Add(rec)
		}
		for _, p := range []float64{50, 95, 99} {
			if got, want := on.Percentile(p), col.Percentile(p); got != want {
				t.Errorf("n=%d P%v = %v, want %v", n, p, got, want)
			}
		}
	}
}

// TestOnlineSketchErrorBound pins the documented accuracy of the latency
// sketch: every percentile estimate is within SketchAlpha relative error of
// the exact nearest-rank value. The bound is structural (log-bucket width),
// so it must hold on adversarial shapes too — the bimodal fast-path/surge
// mix the simulator actually produces, not just smooth distributions.
func TestOnlineSketchErrorBound(t *testing.T) {
	const relBound = SketchAlpha * 1.01 // float slack only; the bound is exact
	check := func(t *testing.T, col *Collector, on *Online) {
		t.Helper()
		for _, p := range []float64{10, 50, 90, 95, 99, 99.9} {
			exact := float64(col.Percentile(p))
			est := float64(on.Percentile(p))
			rel := math.Abs(est-exact) / exact
			if rel > relBound {
				t.Errorf("P%v: sketch %v vs exact %v (rel err %.4f > %.4f)",
					p, time.Duration(est), time.Duration(exact), rel, relBound)
			}
		}
	}
	t.Run("lognormal", func(t *testing.T) {
		for _, seed := range []int64{1, 7, 1234} {
			col, on := feedBoth(50000, seed, 80*time.Millisecond)
			check(t, col, on)
		}
	})
	t.Run("bimodal", func(t *testing.T) {
		// 97% tight fast-path around 20 ms, 3% surge tail around 400 ms:
		// the shape that defeats marker-based sketches (P²).
		r := mrand.New(mrand.NewSource(3))
		col := NewCollector(200 * time.Millisecond)
		on := NewOnline(200*time.Millisecond, time.Minute, 0)
		for i := 0; i < 50000; i++ {
			lat := time.Duration((20 + 2*r.NormFloat64()) * float64(time.Millisecond))
			if r.Float64() < 0.03 {
				lat = time.Duration((400 + 50*r.NormFloat64()) * float64(time.Millisecond))
			}
			if lat < time.Millisecond {
				lat = time.Millisecond
			}
			rec := Record{Latency: lat}
			col.Add(rec)
			on.Add(rec)
		}
		check(t, col, on)
	})
}

// TestOnlineMeanBreakdown: component means must equal the exact sums divided
// by the count.
func TestOnlineMeanBreakdown(t *testing.T) {
	col, on := feedBoth(5000, 9, 80*time.Millisecond)
	var want Breakdown
	for _, r := range col.Records() {
		want.MinExec += r.MinExec
		want.BatchWait += r.BatchWait
		want.QueueDelay += r.QueueDelay
		want.Interference += r.Interference
		want.ColdStart += r.ColdStart
		want.Total += r.Latency
	}
	d := time.Duration(col.Count())
	want = Breakdown{
		MinExec: want.MinExec / d, BatchWait: want.BatchWait / d,
		QueueDelay: want.QueueDelay / d, Interference: want.Interference / d,
		ColdStart: want.ColdStart / d, Total: want.Total / d,
	}
	if got := on.MeanBreakdown(); got != want {
		t.Errorf("MeanBreakdown = %+v, want %+v", got, want)
	}
}

// TestOnlineSnapshotAllocFree: once the sketch's bucket range covers the
// latencies, Add and Snapshot allocate nothing — Snapshot runs under the
// aggregator's lock on every live-plane scrape and progress line.
func TestOnlineSnapshotAllocFree(t *testing.T) {
	on := NewOnline(100*time.Millisecond, time.Minute, DefaultGoodputWindow)
	lat := func(i int) time.Duration { return time.Duration(1+i%400) * time.Millisecond / 2 }
	for i := 0; i < 1000; i++ {
		on.Add(Record{Arrival: time.Duration(i) * time.Millisecond, Latency: lat(i)})
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		on.Add(Record{Arrival: time.Duration(i) * time.Millisecond, Latency: lat(i)})
		_ = on.Snapshot()
		i++
	}); allocs != 0 {
		t.Fatalf("Add+Snapshot allocated %.1f times per op", allocs)
	}
}

// TestLatencySketchBoundedBuckets: the sketch's bucket count must be bounded
// by the latency range and α, not the observation count.
func TestLatencySketchBoundedBuckets(t *testing.T) {
	s := newLatencySketch(SketchAlpha)
	r := mrand.New(mrand.NewSource(5))
	for i := 0; i < 500000; i++ {
		// Spread across 1 µs .. 100 s (8 decades).
		s.add(time.Duration(math.Exp(math.Log(1e3) + r.Float64()*math.Log(1e8))))
	}
	// ln(1e8)/ln(γ) ≈ 18.4/0.02 ≈ 921 buckets for the 8-decade spread.
	if len(s.counts) > 1000 {
		t.Errorf("sketch grew to %d buckets on 500k observations; want range-bounded (~921)", len(s.counts))
	}
}

// TestLatencySketchZeroLatencies: zero-latency records (failed requests
// flushed at arrival) must not break quantiles.
func TestLatencySketchZeroLatencies(t *testing.T) {
	on := NewOnline(time.Second, time.Minute, 0)
	for i := 0; i < 100; i++ {
		on.Add(Record{Latency: 0})
	}
	for i := 0; i < 100; i++ {
		on.Add(Record{Latency: 10 * time.Millisecond})
	}
	if got := on.Percentile(25); got != 0 {
		t.Errorf("P25 = %v, want 0 (half the records are zero-latency)", got)
	}
	p99 := float64(on.Percentile(99))
	if math.Abs(p99-float64(10*time.Millisecond))/float64(10*time.Millisecond) > SketchAlpha*1.01 {
		t.Errorf("P99 = %v, want ~10ms", time.Duration(p99))
	}
}
