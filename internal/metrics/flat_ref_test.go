package metrics

import (
	"bufio"
	"io"
	"slices"
	"strconv"
	"time"
)

// flatCollector is the reference the Collector's readers are checked
// against: one Record per request, stored whole in a list of chunks that
// double from chunkMin to chunkMax.
type flatCollector struct {
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

// newFlatCollector returns a collector judging requests against the given SLO.
func newFlatCollector(slo time.Duration) *flatCollector {
	return &flatCollector{SLO: slo}
}

// Reset empties the collector and makes it judge against slo, keeping the
// record chunks and the latency buffer.
func (c *flatCollector) Reset(slo time.Duration) {
	c.SLO = slo
	c.chunks = c.chunks[:0]
	c.count = 0
	c.latOK = false
}

// Add appends one request outcome.
func (c *flatCollector) Add(r Record) {
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
func (c *flatCollector) Count() int { return c.count }

// Each calls f with every record in insertion order. It is the iteration
// primitive: unlike Records it materializes nothing.
func (c *flatCollector) Each(f func(Record)) {
	for _, ch := range c.chunks {
		for i := range ch {
			f(ch[i])
		}
	}
}

// Records returns a copy of the records in insertion order. Prefer Each on
// large collections; Records materializes a fresh slice per call.
func (c *flatCollector) Records() []Record {
	out := make([]Record, 0, c.count)
	for _, ch := range c.chunks {
		out = append(out, ch...)
	}
	return out
}

// SLOCompliance returns the fraction of requests that completed within the
// SLO, in [0, 1]. Failed requests always violate. An empty collector reports
// 1 (no request missed its target).
func (c *flatCollector) SLOCompliance() float64 {
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
func (c *flatCollector) Violations() int {
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
func (c *flatCollector) latencies() []time.Duration {
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

// Percentile returns the p-th latency percentile by the nearest-rank method.
func (c *flatCollector) Percentile(p float64) time.Duration {
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
func (c *flatCollector) Mean() time.Duration {
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

// CDF returns the end-to-end latency CDF sampled at n evenly spaced
// fractions (Fig. 6).
func (c *flatCollector) CDF(n int) []CDFPoint {
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

// TailBreakdown averages the latency components of the requests in the
// percentile band [pLo, pHi] — e.g. (99, 99.5) reproduces the paper's P99
// breakdown figures.
func (c *flatCollector) TailBreakdown(pLo, pHi float64) Breakdown {
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
func (c *flatCollector) GoodputRPS(from, to time.Duration) float64 {
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
func (c *flatCollector) ArrivalRPS(from, to time.Duration) float64 {
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

// WriteCSV exports every request record, one CSV row per request.
func (c *flatCollector) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 128)
	for i, h := range csvHeader {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, h...)
	}
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	ms := func(b []byte, d time.Duration) []byte {
		return strconv.AppendFloat(b, float64(d)/float64(time.Millisecond), 'f', 3, 64)
	}
	var err error
	c.Each(func(r Record) {
		if err != nil {
			return
		}
		buf = buf[:0]
		buf = strconv.AppendFloat(buf, r.Arrival.Seconds(), 'f', 6, 64)
		buf = append(buf, ',')
		buf = ms(buf, r.Latency)
		buf = append(buf, ',')
		buf = ms(buf, r.BatchWait)
		buf = append(buf, ',')
		buf = ms(buf, r.QueueDelay)
		buf = append(buf, ',')
		buf = ms(buf, r.Interference)
		buf = append(buf, ',')
		buf = ms(buf, r.ColdStart)
		buf = append(buf, ',')
		buf = ms(buf, r.MinExec)
		buf = append(buf, ',')
		buf = strconv.AppendBool(buf, r.Failed)
		buf = append(buf, ',')
		buf = strconv.AppendBool(buf, !r.Failed && r.Latency <= c.SLO)
		buf = append(buf, '\n')
		_, err = bw.Write(buf)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
