package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// refPercentile is the selection reference: the nearest-rank value of a
// sorted copy of lats.
func refPercentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p/100, len(sorted))-1]
}

func sortedCopy(lats []time.Duration) []time.Duration {
	s := slices.Clone(lats)
	slices.Sort(s)
	return s
}

// latencyShapes are the input orders selection must handle: random,
// presorted either way, heavy duplication, the shapes that defeat naive
// pivot choices, and the extreme Durations.
var latencyShapes = map[string]func(r *rand.Rand, i, n int) time.Duration{
	"random":     func(r *rand.Rand, _, _ int) time.Duration { return time.Duration(r.Int63n(int64(time.Second))) },
	"sorted":     func(_ *rand.Rand, i, _ int) time.Duration { return time.Duration(i) },
	"reverse":    func(_ *rand.Rand, i, n int) time.Duration { return time.Duration(n - i) },
	"all-equal":  func(_ *rand.Rand, _, _ int) time.Duration { return msec(7) },
	"two-valued": func(r *rand.Rand, _, _ int) time.Duration { return msec(10 + 90*r.Intn(2)) },
	"organ-pipe": func(_ *rand.Rand, i, n int) time.Duration { return time.Duration(min(i, n-i)) },
	"sawtooth":   func(_ *rand.Rand, i, _ int) time.Duration { return time.Duration(i % 37) },
	"extremes": func(r *rand.Rand, _, _ int) time.Duration {
		return []time.Duration{math.MinInt64, 0, math.MaxInt64}[r.Intn(3)]
	},
}

func shapedCollector(shape string, n int) (*Collector, []time.Duration) {
	r := rand.New(rand.NewSource(int64(n)))
	gen := latencyShapes[shape]
	c := NewCollector(msec(200))
	lats := make([]time.Duration, n)
	for i := range lats {
		lats[i] = gen(r, i, n)
		c.Add(Record{Latency: lats[i], QueueDelay: time.Duration(i)})
	}
	return c, lats
}

// refTailBreakdown averages the components of the records whose latency
// lies between the reference percentiles pLo and pHi.
func refTailBreakdown(c *Collector, sorted []time.Duration, pLo, pHi float64) Breakdown {
	lo, hi := refPercentile(sorted, pLo), refPercentile(sorted, pHi)
	var b Breakdown
	n := 0
	c.Each(func(r Record) {
		if r.Latency >= lo && r.Latency <= hi {
			b.QueueDelay += r.QueueDelay
			b.Total += r.Latency
			n++
		}
	})
	if n == 0 {
		return Breakdown{}
	}
	return Breakdown{QueueDelay: b.QueueDelay / time.Duration(n), Total: b.Total / time.Duration(n)}
}

// Percentile selects the same value a full sort reads, for every input
// shape, size, percentile and call order, including reads interleaved with
// CDF (which sorts the buffer) and TailBreakdown.
func TestPercentileMatchesSortReference(t *testing.T) {
	ps := []float64{0, 1e-9, 50, 99, 99.9, 100}
	orders := map[string]func(c *Collector, read func(p float64)){
		"ascending": func(_ *Collector, read func(float64)) {
			for _, p := range ps {
				read(p)
			}
		},
		"descending": func(_ *Collector, read func(float64)) {
			for i := len(ps) - 1; i >= 0; i-- {
				read(ps[i])
			}
		},
		"repeated": func(_ *Collector, read func(float64)) {
			for _, p := range []float64{50, 50, 99, 50, 99, 99, 0, 100, 0} {
				read(p)
			}
		},
		"interleaved": func(c *Collector, read func(float64)) {
			read(99)
			_ = c.TailBreakdown(99, 99.9)
			read(50)
			_ = c.CDF(10)
			for _, p := range ps {
				read(p)
			}
		},
	}
	for _, n := range []int{1, 2, 16, 17, 255, 256, 8193, 100000} {
		for shape := range latencyShapes {
			for order, run := range orders {
				t.Run(fmt.Sprintf("%s/%d/%s", shape, n, order), func(t *testing.T) {
					c, lats := shapedCollector(shape, n)
					sorted := sortedCopy(lats)
					run(c, func(p float64) {
						if got, want := c.Percentile(p), refPercentile(sorted, p); got != want {
							t.Fatalf("P%v = %v, want %v", p, got, want)
						}
					})
					if got, want := c.TailBreakdown(99, 99.9), refTailBreakdown(c, sorted, 99, 99.9); got != want {
						t.Fatalf("TailBreakdown %+v, want %+v", got, want)
					}
					wantCDF := NewCollector(c.SLO)
					for _, l := range lats {
						wantCDF.Add(Record{Latency: l})
					}
					if !reflect.DeepEqual(c.CDF(60), wantCDF.CDF(60)) {
						t.Fatal("CDF after selection differs from a fresh collector's")
					}
				})
			}
		}
	}
}

// An Add or a Reset after a read drops the placed ranks: the next read
// answers for the records the collector now holds.
func TestPercentileInvalidation(t *testing.T) {
	c, lats := shapedCollector("random", 5000)
	_ = c.Percentile(50)
	_ = c.Percentile(99)
	for i := 0; i < 100; i++ {
		l := time.Duration(int64(time.Second) + int64(i))
		c.Add(Record{Latency: l})
		lats = append(lats, l)
	}
	sorted := sortedCopy(lats)
	for _, p := range []float64{99, 50, 100, 1} {
		if got, want := c.Percentile(p), refPercentile(sorted, p); got != want {
			t.Fatalf("after Add: P%v = %v, want %v", p, got, want)
		}
	}

	c.Reset(msec(200))
	lats = lats[:0]
	for i := 0; i < 3000; i++ {
		l := msec(3000 - i)
		c.Add(Record{Latency: l})
		lats = append(lats, l)
	}
	sorted = sortedCopy(lats)
	for _, p := range []float64{50, 99, 0, 100} {
		if got, want := c.Percentile(p), refPercentile(sorted, p); got != want {
			t.Fatalf("after Reset: P%v = %v, want %v", p, got, want)
		}
	}
}

// With no partition budget, selection sorts the whole range and still
// answers exactly.
func TestPercentileDepthFallback(t *testing.T) {
	defer func(d int) { selectDepth = d }(selectDepth)
	selectDepth = 0
	for shape := range latencyShapes {
		c, lats := shapedCollector(shape, 8193)
		sorted := sortedCopy(lats)
		for _, p := range []float64{50, 99, 0.5, 99.9} {
			if got, want := c.Percentile(p), refPercentile(sorted, p); got != want {
				t.Fatalf("%s: P%v = %v, want %v", shape, p, got, want)
			}
		}
	}
}

// Direct selectRank calls leave the selected rank partitioned: nothing
// larger before it, nothing smaller after it.
func TestSelectRankPartitions(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 13, 200, 4097} {
		for trial := 0; trial < 20; trial++ {
			a := make([]time.Duration, n)
			for i := range a {
				a[i] = time.Duration(r.Intn(n/3 + 1))
			}
			sorted := sortedCopy(a)
			k := r.Intn(n)
			selectRank(a, k)
			if a[k] != sorted[k] {
				t.Fatalf("n=%d k=%d: a[k] = %v, want %v", n, k, a[k], sorted[k])
			}
			for i := range a {
				if (i < k && a[i] > a[k]) || (i > k && a[i] < a[k]) {
					t.Fatalf("n=%d k=%d: a[%d] = %v on the wrong side of %v", n, k, i, a[i], a[k])
				}
			}
		}
	}
}

// outOfRangePs are the percentiles whose rank must clamp: at or below 0 and
// NaN read the minimum, at or above 100 the maximum.
var outOfRangePs = []struct {
	p     float64
	atMax bool
}{
	{math.Inf(-1), false}, {-5, false}, {0, false}, {math.NaN(), false},
	{100, true}, {150, true}, {1e20, true}, {math.Inf(1), true},
}

func TestCollectorPercentileOutOfRange(t *testing.T) {
	c := NewCollector(msec(200))
	for i := 100; i >= 1; i-- {
		c.Add(Record{Latency: msec(i)})
	}
	for _, tc := range outOfRangePs {
		want := msec(1)
		if tc.atMax {
			want = msec(100)
		}
		if got := c.Percentile(tc.p); got != want {
			t.Errorf("P%v = %v, want %v", tc.p, got, want)
		}
	}
}

// Above the exact prefix the sketch answers the clamped ranks within its
// relative error; at or under it, exactly as the Collector does.
func TestOnlinePercentileOutOfRange(t *testing.T) {
	for _, n := range []int{1, 2, 17, sketchExactPrefix, 1000} {
		col := NewCollector(msec(200))
		on := NewOnline(msec(200), time.Minute, 0)
		for i := n; i >= 1; i-- {
			rec := Record{Latency: msec(i)}
			col.Add(rec)
			on.Add(rec)
		}
		for _, tc := range outOfRangePs {
			want := msec(1)
			if tc.atMax {
				want = msec(n)
			}
			got := on.Percentile(tc.p)
			if n <= sketchExactPrefix {
				if got != want || got != col.Percentile(tc.p) {
					t.Errorf("n=%d P%v: Online %v, Collector %v, want %v", n, tc.p, got, col.Percentile(tc.p), want)
				}
				continue
			}
			if rel := math.Abs(float64(got-want)) / float64(want); rel > SketchAlpha {
				t.Errorf("n=%d P%v = %v, want %v within %v", n, tc.p, got, want, SketchAlpha)
			}
		}
		for _, p := range []float64{1e-9, 1, 50, 99, 99.9} {
			if n <= sketchExactPrefix && on.Percentile(p) != col.Percentile(p) {
				t.Errorf("n=%d P%v: Online %v, Collector %v", n, p, on.Percentile(p), col.Percentile(p))
			}
		}
	}
}

// Once a collector has held a run, Reset, a refill and the P50 and P99 that
// every Result reports allocate nothing: the latency buffer and the placed
// ranks are reused.
func TestCollectorPercentileAllocFree(t *testing.T) {
	recs := randomRecords(2, 20000)
	c := NewCollector(msec(200))
	fill := func() {
		for _, r := range recs {
			c.Add(r)
		}
	}
	fill()
	_, _ = c.Percentile(50), c.Percentile(99)
	allocs := testing.AllocsPerRun(5, func() {
		c.Reset(msec(200))
		fill()
		_, _ = c.Percentile(50), c.Percentile(99)
	})
	if allocs != 0 {
		t.Fatalf("Reset+refill+P50+P99 allocates %v times per run, want 0", allocs)
	}
}
