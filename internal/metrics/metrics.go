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

// Chunk sizing: the first two chunks hold chunkMin values each and each
// later chunk doubles up to chunkMax, so until then the first k chunks hold
// chunkMin·2^(k-1) values and a run of a power-of-two size fills its chunks
// exactly. Small runs stay small, large runs allocate the storage they use,
// and, unlike append's geometric regrowth, no value is ever copied and no
// abandoned backing array is stranded.
const (
	chunkMin = 256
	chunkMax = 8192
)

// chunkSize is the capacity of the list's chunk k.
func chunkSize(k int) int {
	size := chunkMin
	for ; k > 1 && size < chunkMax; k-- {
		size *= 2
	}
	return size
}

// chunkList is an append-only list stored in fixed-capacity chunks: values
// are never moved once written. reset empties it but keeps the chunks, which
// the next pushes refill before allocating.
type chunkList[T any] struct {
	chunks [][]T
	n      int
}

// full reports whether the next push starts a new chunk.
func (l *chunkList[T]) full() bool {
	k := len(l.chunks)
	return k == 0 || len(l.chunks[k-1]) == cap(l.chunks[k-1])
}

// next extends the list by one value and returns a pointer to it.
func (l *chunkList[T]) next() *T {
	if l.full() {
		l.grow()
	}
	k := len(l.chunks) - 1
	ch := l.chunks[k][:len(l.chunks[k])+1]
	l.chunks[k] = ch
	l.n++
	return &ch[len(ch)-1]
}

// grow starts the next chunk: one kept by reset if there is one, the same
// size this index would get, or a new one.
func (l *chunkList[T]) grow() {
	k := len(l.chunks)
	if k < cap(l.chunks) && cap(l.chunks[:k+1][k]) > 0 {
		l.chunks = l.chunks[:k+1]
		l.chunks[k] = l.chunks[k][:0]
		return
	}
	l.chunks = append(l.chunks, make([]T, 0, chunkSize(k)))
}

// last returns the most recently pushed value; the list must not be empty.
func (l *chunkList[T]) last() *T {
	ch := l.chunks[len(l.chunks)-1]
	return &ch[len(ch)-1]
}

func (l *chunkList[T]) reset() {
	l.chunks = l.chunks[:0]
	l.n = 0
}

// jobRun is one row of the Collector's job column: a run of consecutive
// records that share their completion and dispatch instants and every
// batch-level component, as the requests of one batch job do. The run's
// requests keep only their latencies, in the latency column; each one's
// arrival is finish minus its latency and its batch wait is dispatch minus
// that arrival. int64 arithmetic wraps, so both come back exactly for any
// input.
type jobRun struct {
	finish       time.Duration // Arrival + Latency
	dispatch     time.Duration // Arrival + BatchWait
	queueDelay   time.Duration
	interference time.Duration
	coldStart    time.Duration
	minExec      time.Duration
	n            int32 // records in the run, at most chunkMax
	failed       bool
}

// record rebuilds the run's record whose latency is lat.
func (j *jobRun) record(lat time.Duration) Record {
	arrival := j.finish - lat
	return Record{
		Arrival:      arrival,
		Latency:      lat,
		BatchWait:    j.dispatch - arrival,
		QueueDelay:   j.queueDelay,
		Interference: j.interference,
		ColdStart:    j.coldStart,
		MinExec:      j.minExec,
		Failed:       j.failed,
	}
}

// matches reports whether r can join j: it agrees on every shared field.
func (j *jobRun) matches(r *Record) bool {
	return j.finish == r.Arrival+r.Latency && j.dispatch == r.Arrival+r.BatchWait &&
		j.queueDelay == r.QueueDelay && j.interference == r.Interference &&
		j.coldStart == r.ColdStart && j.minExec == r.MinExec && j.failed == r.Failed
}

// latCursor walks the latency column in step with the job column. A run's
// latencies never straddle a chunk, so take returns them as one slice.
type latCursor struct {
	chunks [][]time.Duration
	k, off int
}

// take returns the next n latencies.
func (p *latCursor) take(n int) []time.Duration {
	if p.off == len(p.chunks[p.k]) {
		p.k++
		p.off = 0
	}
	s := p.chunks[p.k][p.off : p.off+n]
	p.off += n
	return s
}

// Collector accumulates request records for one experiment run. It stores
// them in two columns: one jobRun per run of consecutive records of one job,
// and one latency per record. A record that matches no run costs a run and
// a latency, 64 B, as much as a Record; each further record of its job costs
// 8 B. Reset empties it for the next run but keeps both columns' chunks, so
// a grid that reuses one Collector per worker allocates its record storage
// once.
type Collector struct {
	SLO time.Duration

	jobs chunkList[jobRun]
	lats chunkList[time.Duration]

	// lat is the latency buffer the order statistics read. The first
	// Percentile or CDF after an Add or Reset fills it from the latency
	// column; Reset keeps its capacity. Each index in placed (ascending)
	// holds its sorted-order value, with no larger latency before it and no
	// smaller one after it, so a later Percentile partitions only the span
	// between its neighbouring placed indices. latSorted marks lat fully
	// sorted.
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
// column chunks and the latency buffer, which the next run's Adds and
// Percentile calls refill before allocating; every reader then answers as a
// new Collector fed the same records would.
func (c *Collector) Reset(slo time.Duration) {
	c.SLO = slo
	c.jobs.reset()
	c.lats.reset()
	c.latOK = false
}

// Add appends one request outcome.
func (c *Collector) Add(r Record) {
	if j := c.lastRun(); j != nil && j.matches(&r) {
		j.n++
	} else {
		*c.jobs.next() = jobRun{r.Arrival + r.Latency, r.Arrival + r.BatchWait, r.QueueDelay,
			r.Interference, r.ColdStart, r.MinExec, 1, r.Failed}
	}
	*c.lats.next() = r.Latency
	c.latOK = false
}

// lastRun returns the run the next record may join: the last one, unless
// there is none or the next latency starts a chunk (runs never straddle
// one).
func (c *Collector) lastRun() *jobRun {
	if c.lats.full() {
		return nil
	}
	return c.jobs.last()
}

// cursor returns a latency cursor at the first record.
func (c *Collector) cursor() latCursor { return latCursor{chunks: c.lats.chunks} }

// Count returns the number of recorded requests.
func (c *Collector) Count() int { return c.lats.n }

// Each calls f with every record in insertion order. It is the iteration
// primitive: unlike Records it materializes nothing.
func (c *Collector) Each(f func(Record)) {
	cur := c.cursor()
	for _, ch := range c.jobs.chunks {
		for i := range ch {
			j := &ch[i]
			for _, l := range cur.take(int(j.n)) {
				f(j.record(l))
			}
		}
	}
}

// Records returns a copy of the records in insertion order. Prefer Each on
// large collections; Records materializes a fresh slice per call.
func (c *Collector) Records() []Record {
	out := make([]Record, 0, c.lats.n)
	cur := c.cursor()
	for _, ch := range c.jobs.chunks {
		for i := range ch {
			j := &ch[i]
			for _, l := range cur.take(int(j.n)) {
				out = append(out, j.record(l))
			}
		}
	}
	return out
}

// SLOCompliance returns the fraction of requests that completed within the
// SLO, in [0, 1]. Failed requests always violate. An empty collector reports
// 1 (no request missed its target).
func (c *Collector) SLOCompliance() float64 {
	if c.lats.n == 0 {
		return 1
	}
	return float64(c.lats.n-c.Violations()) / float64(c.lats.n)
}

// Violations returns the number of requests that missed the SLO or failed.
// It counts the latencies past the SLO in one pass over the latency column,
// then adds the failed runs' requests within it.
func (c *Collector) Violations() int {
	v := 0
	for _, ch := range c.lats.chunks {
		for _, l := range ch {
			if l > c.SLO {
				v++
			}
		}
	}
	cur := c.cursor()
	for _, ch := range c.jobs.chunks {
		for i := range ch {
			lats := cur.take(int(ch[i].n))
			if !ch[i].failed {
				continue
			}
			for _, l := range lats {
				if l <= c.SLO {
					v++
				}
			}
		}
	}
	return v
}

// latencies returns the latency buffer, refilled from the latency column in
// insertion order if an Add or Reset came after the last fill.
func (c *Collector) latencies() []time.Duration {
	if c.latOK {
		return c.lat
	}
	c.lat = c.lat[:0]
	if cap(c.lat) < c.lats.n {
		c.lat = make([]time.Duration, 0, c.lats.n)
	}
	for _, ch := range c.lats.chunks {
		c.lat = append(c.lat, ch...)
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
	if c.lats.n == 0 {
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
	if c.lats.n == 0 {
		return 0
	}
	var sum time.Duration
	for _, ch := range c.lats.chunks {
		for _, l := range ch {
			sum += l
		}
	}
	return sum / time.Duration(c.lats.n)
}

// CDFPoint is one point of a latency CDF.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64 // fraction of requests with latency <= Latency
}

// CDF returns the end-to-end latency CDF sampled at n evenly spaced
// fractions (Fig. 6).
func (c *Collector) CDF(n int) []CDFPoint {
	if c.lats.n == 0 || n <= 0 {
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
	if c.lats.n == 0 {
		return Breakdown{}
	}
	lo := c.Percentile(pLo)
	hi := c.Percentile(pHi)
	// Every band member of a run shares its components, and its batch wait
	// is dispatch-finish plus its latency: k members add k of each. Sums
	// wrap as the per-record sums would, so the totals are identical.
	var b Breakdown
	n := 0
	cur := c.cursor()
	for _, ch := range c.jobs.chunks {
		for i := range ch {
			j := &ch[i]
			var k, sum time.Duration
			for _, l := range cur.take(int(j.n)) {
				if l >= lo && l <= hi {
					k++
					sum += l
				}
			}
			if k == 0 {
				continue
			}
			b.MinExec += k * j.minExec
			b.BatchWait += k*(j.dispatch-j.finish) + sum
			b.QueueDelay += k * j.queueDelay
			b.Interference += k * j.interference
			b.ColdStart += k * j.coldStart
			b.Total += sum
			n += int(k)
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
	cur := c.cursor()
	for _, ch := range c.jobs.chunks {
		for i := range ch {
			lats := cur.take(int(ch[i].n))
			if ch[i].failed {
				continue
			}
			finish := ch[i].finish
			for _, l := range lats {
				if a := finish - l; a >= from && a < to && l <= c.SLO {
					ok++
				}
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
	cur := c.cursor()
	for _, ch := range c.jobs.chunks {
		for i := range ch {
			finish := ch[i].finish
			for _, l := range cur.take(int(ch[i].n)) {
				if a := finish - l; a >= from && a < to {
					n++
				}
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
