// Package metrics collects per-request outcomes and computes every quantity
// the paper's evaluation reports: SLO compliance, tail latency percentiles,
// end-to-end latency CDFs, the tail-latency breakdown into minimum possible
// execution time / queueing delay / interference overhead (Figs. 1 and 4),
// goodput over peak-traffic windows (Fig. 7a), and helper statistics for
// aggregating repetitions the way the paper does (outliers beyond 2.5
// standard deviations dropped).
package metrics

import (
	"math"
	"slices"
	"time"
)

// Record is the outcome of one request.
type Record struct {
	// Arrival is the request's arrival instant.
	Arrival time.Duration
	// Latency is the end-to-end response time (arrival to completion).
	Latency time.Duration
	// BatchWait is the time spent in the batcher before dispatch.
	BatchWait time.Duration
	// QueueDelay is the time the request's job waited on the device.
	QueueDelay time.Duration
	// Interference is the execution inflation from co-located jobs.
	Interference time.Duration
	// ColdStart is container startup time serialized before execution.
	ColdStart time.Duration
	// MinExec is the profiled solo execution latency of the request's batch
	// on the hardware that served it ("Min possible time" in Figs. 1 and 4).
	MinExec time.Duration
	// Failed marks requests lost to node failures or overload shedding;
	// they always count as SLO violations.
	Failed bool
}

// Record chunk sizing: the first chunk holds chunkMin records and each new
// chunk doubles up to chunkMax, so small runs stay small while large runs
// allocate exactly the storage they use — unlike append's geometric
// regrowth, which both copies every record O(log n) times and strands the
// abandoned backing arrays (~65% of a large run's allocated bytes before
// this layout).
const (
	chunkMin = 256
	chunkMax = 8192
)

// Collector accumulates request records for one experiment run. Storage is a
// list of fixed-capacity chunks: records are never moved once written. Reset
// empties it for the next run but keeps the chunks, so a grid that reuses one
// Collector per worker allocates its record storage once.
type Collector struct {
	SLO time.Duration

	chunks [][]Record
	count  int

	// lat is the latency buffer the order statistics read. The first
	// Percentile or CDF after an Add or Reset fills it from the records;
	// Reset keeps its capacity. Each index in placed (ascending) holds its
	// sorted-order value, with no larger latency before it and no smaller
	// one after it, so a later Percentile partitions only the span between
	// its neighbouring placed indices. latSorted marks lat fully sorted.
	lat       []time.Duration
	latOK     bool
	latSorted bool
	placed    []int
}

// NewCollector returns a collector judging requests against the given SLO.
func NewCollector(slo time.Duration) *Collector {
	return &Collector{SLO: slo}
}

// Reset empties the collector and makes it judge against slo. It keeps the
// record chunks and the latency buffer, which the next run's Adds and
// Percentile calls refill before allocating; every reader then answers as a
// new Collector fed the same records would.
func (c *Collector) Reset(slo time.Duration) {
	c.SLO = slo
	c.chunks = c.chunks[:0]
	c.count = 0
	c.latOK = false
}

// Add appends one request outcome.
func (c *Collector) Add(r Record) {
	n := len(c.chunks)
	if n == 0 || len(c.chunks[n-1]) == cap(c.chunks[n-1]) {
		if n < cap(c.chunks) && cap(c.chunks[:n+1][n]) > 0 {
			// A chunk kept by Reset: the same size this index would get.
			c.chunks = c.chunks[:n+1]
			c.chunks[n] = c.chunks[n][:0]
		} else {
			size := chunkMin
			if n > 0 {
				if size = 2 * cap(c.chunks[n-1]); size > chunkMax {
					size = chunkMax
				}
			}
			c.chunks = append(c.chunks, make([]Record, 0, size))
		}
		n++
	}
	c.chunks[n-1] = append(c.chunks[n-1], r)
	c.count++
	c.latOK = false
}

// Count returns the number of recorded requests.
func (c *Collector) Count() int { return c.count }

// Each calls f with every record in insertion order. It is the iteration
// primitive: unlike Records it materializes nothing.
func (c *Collector) Each(f func(Record)) {
	for _, ch := range c.chunks {
		for i := range ch {
			f(ch[i])
		}
	}
}

// Records returns a copy of the records in insertion order. Prefer Each on
// large collections; Records materializes a fresh slice per call.
func (c *Collector) Records() []Record {
	out := make([]Record, 0, c.count)
	for _, ch := range c.chunks {
		out = append(out, ch...)
	}
	return out
}

// SLOCompliance returns the fraction of requests that completed within the
// SLO, in [0, 1]. Failed requests always violate. An empty collector reports
// 1 (no request missed its target).
func (c *Collector) SLOCompliance() float64 {
	if c.count == 0 {
		return 1
	}
	ok := 0
	for _, ch := range c.chunks {
		for i := range ch {
			if !ch[i].Failed && ch[i].Latency <= c.SLO {
				ok++
			}
		}
	}
	return float64(ok) / float64(c.count)
}

// Violations returns the number of requests that missed the SLO or failed.
func (c *Collector) Violations() int {
	v := 0
	for _, ch := range c.chunks {
		for i := range ch {
			if ch[i].Failed || ch[i].Latency > c.SLO {
				v++
			}
		}
	}
	return v
}

// latencies returns the latency buffer, refilled from the records in
// insertion order if an Add or Reset came after the last fill.
func (c *Collector) latencies() []time.Duration {
	if c.latOK {
		return c.lat
	}
	c.lat = c.lat[:0]
	if cap(c.lat) < c.count {
		c.lat = make([]time.Duration, 0, c.count)
	}
	for _, ch := range c.chunks {
		for i := range ch {
			c.lat = append(c.lat, ch[i].Latency)
		}
	}
	c.placed = c.placed[:0]
	c.latOK, c.latSorted = true, false
	return c.lat
}

// Percentile returns the p-th latency percentile by the nearest-rank method:
// the ceil(p/100·n)-th smallest of the n latencies, exactly. p ≤ 0 or NaN
// reads the minimum and p ≥ 100 the maximum; an empty collector reports 0.
// It selects rather than sorts — O(n) expected for the first read after an
// Add or Reset, and a later read partitions only between the ranks earlier
// reads placed — so the answer never depends on the order of the calls.
// After a CDF, which still sorts fully, it reads the sorted buffer directly.
func (c *Collector) Percentile(p float64) time.Duration {
	if c.count == 0 {
		return 0
	}
	lat := c.latencies()
	k := nearestRank(p/100, len(lat)) - 1
	if c.latSorted {
		return lat[k]
	}
	i, placed := slices.BinarySearch(c.placed, k)
	if placed {
		return lat[k]
	}
	lo, hi := 0, len(lat)
	if i > 0 {
		lo = c.placed[i-1] + 1
	}
	if i < len(c.placed) {
		hi = c.placed[i]
	}
	selectRank(lat[lo:hi], k-lo)
	c.placed = slices.Insert(c.placed, i, k)
	return lat[k]
}

// Mean returns the mean end-to-end latency.
func (c *Collector) Mean() time.Duration {
	if c.count == 0 {
		return 0
	}
	var sum time.Duration
	for _, ch := range c.chunks {
		for i := range ch {
			sum += ch[i].Latency
		}
	}
	return sum / time.Duration(c.count)
}

// CDFPoint is one point of a latency CDF.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64 // fraction of requests with latency <= Latency
}

// CDF returns the end-to-end latency CDF sampled at n evenly spaced
// fractions (Fig. 6).
func (c *Collector) CDF(n int) []CDFPoint {
	if c.count == 0 || n <= 0 {
		return nil
	}
	lat := c.latencies()
	if !c.latSorted {
		slices.Sort(lat)
		c.latSorted = true
	}
	out := make([]CDFPoint, n)
	for i := 0; i < n; i++ {
		f := float64(i+1) / float64(n)
		idx := int(f*float64(len(lat))) - 1
		if idx < 0 {
			idx = 0
		}
		out[i] = CDFPoint{Latency: lat[idx], Fraction: f}
	}
	return out
}

// Breakdown decomposes latency into the paper's Fig. 1/4 components.
type Breakdown struct {
	// MinExec is the interference- and queueing-free execution time.
	MinExec time.Duration
	// BatchWait is time spent forming the batch.
	BatchWait time.Duration
	// QueueDelay is device queueing (time sharing) delay.
	QueueDelay time.Duration
	// Interference is execution inflation from spatial co-location.
	Interference time.Duration
	// ColdStart is container startup serialized into the request.
	ColdStart time.Duration
	// Total is the end-to-end latency.
	Total time.Duration
}

// TailBreakdown averages the latency components of the requests in the
// percentile band [pLo, pHi] — e.g. (99, 99.5) reproduces the paper's P99
// breakdown figures.
func (c *Collector) TailBreakdown(pLo, pHi float64) Breakdown {
	if c.count == 0 {
		return Breakdown{}
	}
	lo := c.Percentile(pLo)
	hi := c.Percentile(pHi)
	var b Breakdown
	n := 0
	for _, ch := range c.chunks {
		for i := range ch {
			r := &ch[i]
			if r.Latency < lo || r.Latency > hi {
				continue
			}
			b.MinExec += r.MinExec
			b.BatchWait += r.BatchWait
			b.QueueDelay += r.QueueDelay
			b.Interference += r.Interference
			b.ColdStart += r.ColdStart
			b.Total += r.Latency
			n++
		}
	}
	if n == 0 {
		return Breakdown{}
	}
	d := time.Duration(n)
	return Breakdown{
		MinExec:      b.MinExec / d,
		BatchWait:    b.BatchWait / d,
		QueueDelay:   b.QueueDelay / d,
		Interference: b.Interference / d,
		ColdStart:    b.ColdStart / d,
		Total:        b.Total / d,
	}
}

// GoodputRPS returns the rate of requests served within the SLO whose
// arrivals fall in [from, to) — the paper's goodput metric for peak-traffic
// analysis.
func (c *Collector) GoodputRPS(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	ok := 0
	for _, ch := range c.chunks {
		for i := range ch {
			r := &ch[i]
			if r.Arrival >= from && r.Arrival < to && !r.Failed && r.Latency <= c.SLO {
				ok++
			}
		}
	}
	return float64(ok) / (to - from).Seconds()
}

// ArrivalRPS returns the arrival rate over [from, to).
func (c *Collector) ArrivalRPS(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	n := 0
	for _, ch := range c.chunks {
		for i := range ch {
			if ch[i].Arrival >= from && ch[i].Arrival < to {
				n++
			}
		}
	}
	return float64(n) / (to - from).Seconds()
}

// MeanDropOutliers averages values after discarding entries more than k
// standard deviations from the mean — the paper's repetition-aggregation
// rule (k = 2.5). With fewer than 3 values it returns the plain mean.
func MeanDropOutliers(values []float64, k float64) float64 {
	if len(values) == 0 {
		return 0
	}
	mean, sd := meanStd(values)
	if len(values) < 3 || sd == 0 {
		return mean
	}
	var kept []float64
	for _, v := range values {
		if math.Abs(v-mean) <= k*sd {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return mean
	}
	m, _ := meanStd(kept)
	return m
}

func meanStd(values []float64) (mean, sd float64) {
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	for _, v := range values {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / float64(len(values)))
	return mean, sd
}
