package metrics

import (
	"math"
	"slices"
	"sync"
	"time"
)

// Aggregator consumes per-request outcomes. Two implementations exist: the
// exact Collector (default; O(N) memory, exact percentiles and tail
// breakdowns) and the constant-memory Online aggregator (streaming counters
// plus fixed-size quantile sketches) that million-request runs select via
// core.Config.
type Aggregator interface {
	Add(r Record)
	Count() int
	SLOCompliance() float64
	Violations() int
	Percentile(p float64) time.Duration
	Mean() time.Duration
}

var (
	_ Aggregator = (*Collector)(nil)
	_ Aggregator = (*Online)(nil)
)

// DefaultGoodputWindow is the arrival-window resolution of the Online
// aggregator's goodput counters (matching the 1 s windows the peak-traffic
// analysis reads).
const DefaultGoodputWindow = time.Second

// SketchAlpha is the latency sketch's guaranteed relative accuracy: any
// percentile it reports is within this fraction of the exact nearest-rank
// value, for any latency distribution (the guarantee is structural — one
// log-spaced bucket never spans more than 2α relative width — not
// empirical).
const SketchAlpha = 0.01

// Online is the constant-memory Aggregator: counts, sums and per-window
// goodput counters are exact; latency percentiles come from a log-bucketed
// quantile sketch with a guaranteed relative error (SketchAlpha); the
// Fig. 1/4 component breakdown is tracked as whole-population means rather
// than the Collector's percentile-band means. Memory is O(duration/window)
// for the goodput counters and O(log(maxLatency)/α) for the sketch —
// independent of request count.
//
// Online is safe for concurrent use: the simulation goroutine Adds while
// observers (the live observability plane, -progress reporting) call
// Snapshot or any reader concurrently. A single uncontended mutex guards
// every method — nanoseconds per request against a simulation that spends
// microseconds per request, and no effect on determinism.
type Online struct {
	SLO time.Duration

	mu         sync.Mutex
	count      int
	failed     int
	ok         int // completed within SLO
	latSum     time.Duration
	latMax     time.Duration
	sketch     latencySketch
	breakdown  Breakdown // component sums until MeanBreakdown divides
	goodWindow time.Duration
	okWin      []uint32 // served-within-SLO count per arrival window
	totWin     []uint32 // arrivals per window
}

// NewOnline returns a constant-memory aggregator judging requests against
// slo. duration bounds the goodput window counters (arrivals at or beyond it
// clamp into the last window); window <= 0 disables goodput tracking.
func NewOnline(slo, duration, window time.Duration) *Online {
	o := &Online{SLO: slo, goodWindow: window, sketch: newLatencySketch(SketchAlpha)}
	if window > 0 && duration > 0 {
		n := int(duration/window) + 1
		o.okWin = make([]uint32, n)
		o.totWin = make([]uint32, n)
	}
	return o
}

// Add absorbs one request outcome in O(1) time and memory.
func (o *Online) Add(r Record) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.count++
	inSLO := !r.Failed && r.Latency <= o.SLO
	if r.Failed {
		o.failed++
	}
	if inSLO {
		o.ok++
	}
	o.latSum += r.Latency
	if r.Latency > o.latMax {
		o.latMax = r.Latency
	}
	o.sketch.add(r.Latency)
	o.breakdown.MinExec += r.MinExec
	o.breakdown.BatchWait += r.BatchWait
	o.breakdown.QueueDelay += r.QueueDelay
	o.breakdown.Interference += r.Interference
	o.breakdown.ColdStart += r.ColdStart
	o.breakdown.Total += r.Latency
	if o.totWin != nil {
		i := int(r.Arrival / o.goodWindow)
		if i < 0 {
			i = 0
		}
		if i >= len(o.totWin) {
			i = len(o.totWin) - 1
		}
		o.totWin[i]++
		if inSLO {
			o.okWin[i]++
		}
	}
}

// Count returns the number of absorbed requests.
func (o *Online) Count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.count
}

// Failed returns the number of failed requests.
func (o *Online) Failed() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.failed
}

// SLOCompliance returns the fraction of requests served within the SLO. An
// empty aggregator reports 1, like the Collector.
func (o *Online) SLOCompliance() float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.complianceLocked()
}

func (o *Online) complianceLocked() float64 {
	if o.count == 0 {
		return 1
	}
	return float64(o.ok) / float64(o.count)
}

// Violations returns the number of requests that missed the SLO or failed.
func (o *Online) Violations() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.count - o.ok
}

// Mean returns the mean end-to-end latency (exact).
func (o *Online) Mean() time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.meanLocked()
}

func (o *Online) meanLocked() time.Duration {
	if o.count == 0 {
		return 0
	}
	return o.latSum / time.Duration(o.count)
}

// Max returns the maximum observed latency (exact).
func (o *Online) Max() time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.latMax
}

// Percentile returns the sketch estimate of the p-th latency percentile
// (p ≤ 0 or NaN reads the minimum, p ≥ 100 the maximum), within
// SketchAlpha relative error of the Collector's exact nearest-rank value.
// Small runs (up to the sketch's exact-prefix size) report exact
// percentiles.
func (o *Online) Percentile(p float64) time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sketch.quantile(p / 100)
}

// MeanBreakdown returns the whole-population mean of each latency component
// — the constant-memory stand-in for the Collector's percentile-band
// TailBreakdown.
func (o *Online) MeanBreakdown() Breakdown {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.meanBreakdownLocked()
}

func (o *Online) meanBreakdownLocked() Breakdown {
	if o.count == 0 {
		return Breakdown{}
	}
	d := time.Duration(o.count)
	b := o.breakdown
	return Breakdown{
		MinExec:      b.MinExec / d,
		BatchWait:    b.BatchWait / d,
		QueueDelay:   b.QueueDelay / d,
		Interference: b.Interference / d,
		ColdStart:    b.ColdStart / d,
		Total:        b.Total / d,
	}
}

// Snapshot is a consistent point-in-time view of the aggregator, cheap
// enough to take mid-run on a sampling cadence: counters and means are
// exact, the percentiles are sketch estimates (SketchAlpha relative error).
type Snapshot struct {
	Count      int
	Failed     int
	OK         int // completed within the SLO
	Violations int // missed the SLO or failed

	Compliance float64
	Mean       time.Duration
	Max        time.Duration

	P50, P95, P99 time.Duration

	Breakdown Breakdown // whole-population component means
}

// Snapshot returns a consistent mid-run view under one lock acquisition —
// the thread-safe read API behind the live observability plane's /metrics
// and /state endpoints and paldia-sim's -progress reporting. It is safe to
// call at any time from any goroutine, including while the simulation
// goroutine is Adding.
func (o *Online) Snapshot() Snapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	return Snapshot{
		Count:      o.count,
		Failed:     o.failed,
		OK:         o.ok,
		Violations: o.count - o.ok,
		Compliance: o.complianceLocked(),
		Mean:       o.meanLocked(),
		Max:        o.latMax,
		P50:        o.sketch.quantile(0.50),
		P95:        o.sketch.quantile(0.95),
		P99:        o.sketch.quantile(0.99),
		Breakdown:  o.meanBreakdownLocked(),
	}
}

// GoodputRPS returns the rate of requests served within the SLO whose
// arrivals fall in [from, to). Counts are exact per aligned window; partial
// edge windows are prorated by overlap, so unaligned bounds are an
// approximation at the two edges only.
func (o *Online) GoodputRPS(from, to time.Duration) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.windowRate(o.okWin, from, to)
}

// ArrivalRPS returns the arrival rate over [from, to), with the same
// aligned-exact / edge-prorated semantics as GoodputRPS.
func (o *Online) ArrivalRPS(from, to time.Duration) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.windowRate(o.totWin, from, to)
}

func (o *Online) windowRate(win []uint32, from, to time.Duration) float64 {
	if to <= from || win == nil {
		return 0
	}
	sum := 0.0
	for i, c := range win {
		if c == 0 {
			continue
		}
		wFrom := time.Duration(i) * o.goodWindow
		wTo := wFrom + o.goodWindow
		overlap := minDur(wTo, to) - maxDur(wFrom, from)
		if overlap <= 0 {
			continue
		}
		sum += float64(c) * float64(overlap) / float64(o.goodWindow)
	}
	return sum / (to - from).Seconds()
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// --- quantile sketch ---------------------------------------------------------

// logBuckets is the DDSketch-style log-bucket store behind both online
// latency estimators, the Online sketch and the hedge policy's AgeTracker:
// value v lands in bucket ceil(log_γ(v)) with γ = (1+α)/(1-α), so one bucket
// spans at most 2α/(1-α) relative width and the bucket midpoint is within α
// of every value in it — a structural guarantee that holds for any
// distribution, unlike moment- or marker-based sketches (P², notably, can be
// badly wrong on the bimodal fast-path/surge latency mix this simulator
// produces). The counts are dense over the occupied bucket range
// [lo, lo+len(counts)), widened down or up when a value lands outside it, so
// memory is O(log(max/min)/α) — ~920 buckets at α=1% for 1 µs..100 s —
// independent of request count, and a rank is one ascending walk.
// Deterministic: same inputs, same answers.
type logBuckets struct {
	gamma   float64
	lnGamma float64
	lo      int      // bucket index of counts[0]
	counts  []uint64 // positive observations per bucket
	n       uint64
	zeros   uint64 // non-positive observations (latency 0)
}

func newLogBuckets(alpha float64) logBuckets {
	gamma := (1 + alpha) / (1 - alpha)
	return logBuckets{gamma: gamma, lnGamma: math.Log(gamma)}
}

func (b *logBuckets) add(v time.Duration) {
	b.n++
	if v <= 0 {
		b.zeros++
		return
	}
	k := int(math.Ceil(math.Log(float64(v)) / b.lnGamma))
	if k < b.lo || k >= b.lo+len(b.counts) {
		b.cover(k, k+1)
	}
	b.counts[k-b.lo]++
}

// cover widens the dense range to include buckets [from, to).
func (b *logBuckets) cover(from, to int) {
	if len(b.counts) == 0 {
		b.lo = from
	}
	if from < b.lo {
		grown := make([]uint64, b.lo-from+len(b.counts))
		copy(grown[b.lo-from:], b.counts)
		b.lo, b.counts = from, grown
	}
	if n := to - b.lo; n > len(b.counts) {
		b.counts = append(b.counts, make([]uint64, n-len(b.counts))...)
	}
}

// value returns the rank-th smallest observation (1-based) within α: zero
// for the non-positive ones, else the midpoint 2γ^k/(γ+1) of the bucket k
// where the ascending cumulative count reaches the rank.
func (b *logBuckets) value(rank uint64) time.Duration {
	if rank <= b.zeros {
		return 0
	}
	rank -= b.zeros
	var cum uint64
	for i, c := range b.counts {
		if cum += c; cum >= rank {
			mid := 2 * math.Pow(b.gamma, float64(b.lo+i)) / (b.gamma + 1)
			if mid >= math.MaxInt64 { // a top bucket's midpoint may pass the largest Duration
				return math.MaxInt64
			}
			return time.Duration(mid)
		}
	}
	return 0
}

// sketchExactPrefix is how many observations the sketch keeps exactly
// before answering from buckets; runs at or under it report exact
// nearest-rank percentiles (matching the Collector bit-for-bit).
const sketchExactPrefix = 64

// latencySketch is the Online aggregator's quantile estimator: the
// log-bucket store plus the first sketchExactPrefix observations verbatim.
type latencySketch struct {
	logBuckets
	exact []time.Duration
}

func newLatencySketch(alpha float64) latencySketch {
	return latencySketch{logBuckets: newLogBuckets(alpha)}
}

func (s *latencySketch) add(v time.Duration) {
	if len(s.exact) < sketchExactPrefix {
		s.exact = append(s.exact, v)
	}
	s.logBuckets.add(v)
}

// quantile returns the q-th quantile using the Collector's nearest-rank
// convention: q ≤ 0 or NaN reads the minimum and q ≥ 1 the maximum. At or
// under the exact prefix it is exact; above it, within α relative error.
func (s *latencySketch) quantile(q float64) time.Duration {
	if s.n == 0 {
		return 0
	}
	rank := nearestRank(q, int(s.n))
	if s.n <= uint64(len(s.exact)) {
		var buf [sketchExactPrefix]time.Duration
		sorted := buf[:copy(buf[:], s.exact)]
		slices.Sort(sorted)
		return sorted[rank-1]
	}
	return s.value(uint64(rank))
}
