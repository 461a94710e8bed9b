package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"time"
)

// MergeWriter is the sharded counterpart of StreamWriter: it writes spans
// (and, optionally, the raw event feed) from several concurrent simulation
// lanes into one output, in a deterministic virtual-time merge order. Each
// lane gets its own SpanSink (Lane), safe to feed from that lane's
// goroutine.
//
// Output leaves each lane in two steps, so that encoding and writing can
// overlap the lanes' next epoch:
//   - Cut(t) moves every queued span, event line and sample with key <= t
//     from each lane's live batch into its cut batch. Only the coordinator
//     calls it, while no lane feeds and no Drain runs.
//   - Drain merges, encodes and writes the cut batches. It never touches a
//     live batch, so it may run on the coordinator while the lanes feed;
//     one Drain at a time, never concurrently with Cut.
//
// FlushThrough(t) is Cut(t) and Drain back to back, and Close flushes
// everything; call them, PeakQueued, Series, SpansWritten and Err as Cut is
// called (the sharded executor calls them between epochs, after joining the
// lane workers).
//
// Merge order is (key, lane, arrival-within-lane), where key is the lane's
// running maximum of event and span-completion times — a deterministic
// function of the lane's own simulation, never of worker scheduling — so
// `-j N` output is byte-identical for every N. With a single lane the output
// is byte-identical to StreamWriter's: the merge reduces to the lane's FIFO,
// which is exactly completion order.
//
// Multi-lane writers stamp the lane index into every event's and span's Tenant
// (lanes are single-tenant simulations), so spans and event lines identify
// their lane and sample series names gain a "t<lane>/" prefix. A one-lane
// writer stamps nothing.
type MergeWriter struct {
	lanes  []*LaneSink
	series *SeriesSet

	spans      *bufio.Writer
	events     *bufio.Writer
	haveEvents bool
	buf        []byte // reused JSONL line buffer
	cursor     []int  // Drain's per-lane merge position, reused

	// undrained is set by Cut and cleared by Drain: while it is set the cut
	// batches still hold unwritten entries, so a further Cut appends to them
	// instead of recycling them.
	undrained bool

	written int
	err     error
}

// queuedSpan is a completed span awaiting its barrier flush.
type queuedSpan struct {
	key time.Duration
	s   *Span
}

// queuedEvent is a raw event line awaiting its barrier flush.
type queuedEvent struct {
	key time.Duration
	e   Event
}

func (q queuedSpan) at() time.Duration  { return q.key }
func (q queuedEvent) at() time.Duration { return q.key }

// batch is one side of a lane's double buffer. Each queue is in lane-FIFO
// order, so its keys never decrease.
type batch struct {
	spans   []queuedSpan
	events  []queuedEvent // event lines, when the writer has an events output
	samples []queuedEvent // Sample events, observed into the series by Drain
}

// LaneSink is one lane's SpanSink into a MergeWriter. It is not safe for
// concurrent use; each lane feeds its own. Distinct lanes may feed
// concurrently, and concurrently with Drain: a lane sink touches only its
// own live batch and free list, never the shared writer state or its cut
// batch, which only Cut, Drain and Close touch.
type LaneSink struct {
	w    *MergeWriter
	lane int
	key  time.Duration // running max of observed event and completion times
	peak int           // lane-local high-water mark of the live batch

	inFlight int     // requests arrived whose span has not been handed over
	open     []*Span // spans of requests still open when the run ended
	free     []*Span // written spans, recycled by Span

	live batch // fed by the lane
	cut  batch // handed to Drain; its spans return to free at the next Cut

	// detailIntern caches the lane's "t<lane>/<series>" sample names. The
	// gauge-name set is tiny and fixed per run, so every Sample event after
	// the first per series reuses one interned string instead of a Sprintf.
	detailIntern map[string]string
}

// NewMergeWriter returns a writer merging `lanes` lane feeds into the spans
// writer and, when events is non-nil, the raw event feed. Call Lane(i) for
// each lane's sink, FlushThrough (or Cut and Drain) at barriers, and Close
// at the end.
func NewMergeWriter(spans, events io.Writer, lanes int) *MergeWriter {
	if lanes < 1 {
		lanes = 1
	}
	w := &MergeWriter{series: NewSeriesSet(), cursor: make([]int, lanes)}
	w.spans = bufio.NewWriter(spans)
	if events != nil {
		w.events = bufio.NewWriter(events)
		w.haveEvents = true
	}
	w.lanes = make([]*LaneSink, lanes)
	for i := range w.lanes {
		w.lanes[i] = &LaneSink{w: w, lane: i}
	}
	return w
}

// Lane returns lane i's Sink.
func (w *MergeWriter) Lane(i int) *LaneSink { return w.lanes[i] }

// Lanes returns the number of lanes.
func (w *MergeWriter) Lanes() int { return len(w.lanes) }

// Lifecycle reports whether the lane consumes lifecycle events: only when
// the writer has an events output.
func (l *LaneSink) Lifecycle() bool { return l.w.haveEvents }

// Event implements Sink for one lane.
func (l *LaneSink) Event(e Event) {
	if e.At > l.key {
		// Event times are nondecreasing per lane in practice; the running
		// max makes the flush key monotone even if a source ever emits a
		// timestamp from before the clock (keys must not regress past an
		// already-flushed barrier).
		l.key = e.At
	}
	if len(l.w.lanes) > 1 {
		e.Tenant = l.lane
		if e.Kind == Sample {
			e.Detail = l.prefixed(e.Detail)
		}
	}
	if e.Kind == Sample {
		// The shared SeriesSet is only touched by Drain; per-series
		// observation order stays lane-FIFO — with per-lane series names,
		// one lane owns each series — so the series contents are
		// independent of flush cadence.
		l.live.samples = append(l.live.samples, queuedEvent{key: l.key, e: e})
		if l.w.haveEvents {
			l.live.events = append(l.live.events, queuedEvent{key: l.key, e: e})
		}
		return
	}
	if l.w.haveEvents {
		l.live.events = append(l.live.events, queuedEvent{key: l.key, e: e})
	}
	l.sample()
}

// Arrive implements SpanSink: one more request is in flight.
func (l *LaneSink) Arrive() {
	l.inFlight++
	l.sample()
}

// Step implements SpanSink: the high-water mark is sampled, as the lifecycle
// event the step stands for would have sampled it.
func (l *LaneSink) Step() { l.sample() }

// Span implements SpanSink. The lane copies the span into one of its own
// (recycled once written) and queues it under the completion time, or — for
// a request still open at the end of the run — holds it for Close.
func (l *LaneSink) Span(s *Span) {
	var c *Span
	if n := len(l.free); n > 0 {
		c = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		c = new(Span)
	}
	*c = *s
	if len(l.w.lanes) > 1 {
		c.Tenant = l.lane
	}
	l.inFlight--
	if !c.Done() {
		l.open = append(l.open, c)
	} else {
		if c.Completed > l.key {
			l.key = c.Completed
		}
		l.live.spans = append(l.live.spans, queuedSpan{key: l.key, s: c})
	}
	l.sample()
}

// sample updates the lane's queue high-water mark.
func (l *LaneSink) sample() {
	if n := l.queued(); n > l.peak {
		l.peak = n
	}
}

// prefixed returns the lane-qualified series name "t<lane>/<detail>",
// interned per lane so repeated samples of the same gauge share one string.
func (l *LaneSink) prefixed(detail string) string {
	if p, ok := l.detailIntern[detail]; ok {
		return p
	}
	if l.detailIntern == nil {
		l.detailIntern = make(map[string]string)
	}
	p := fmt.Sprintf("t%d/%s", l.lane, detail)
	l.detailIntern[detail] = p
	return p
}

// queued is the lane's current buffered load: requests in flight and open
// spans, plus the spans and event lines of its live batch. Cut batches do
// not count: they are the writer's, no longer the lane's.
func (l *LaneSink) queued() int {
	return l.inFlight + len(l.open) + len(l.live.spans) +
		len(l.live.events) + len(l.live.samples)
}

// FlushThrough writes every queued span and event line with key <= t, merged
// across lanes in (key, lane, lane-FIFO) order: Cut(t), then Drain, with the
// written spans recycled at once. Call it as Cut is called.
func (w *MergeWriter) FlushThrough(t time.Duration) {
	w.Cut(t)
	w.Drain()
	for _, l := range w.lanes {
		l.reclaim()
	}
}

// Cut hands every queued span, event line and sample with key <= t to the
// next Drain. At a barrier every queued key is <= t and the cut is a swap of
// each lane's two batches; it copies only the entries it takes when some
// key lies beyond t. Spans a previous Drain wrote return to their lane's
// free list here. Only the coordinator calls Cut, while no lane feeds and
// no Drain runs.
func (w *MergeWriter) Cut(t time.Duration) {
	for _, l := range w.lanes {
		if !w.undrained {
			l.reclaim()
		}
		cutThrough(&l.live.spans, &l.cut.spans, t)
		cutThrough(&l.live.events, &l.cut.events, t)
		cutThrough(&l.live.samples, &l.cut.samples, t)
	}
	w.undrained = true
}

// cutThrough moves the leading entries of *live with key <= t onto the end
// of *cut. When *cut is empty and every entry qualifies, the slices swap.
func cutThrough[T interface{ at() time.Duration }](live, cut *[]T, t time.Duration) {
	q := *live
	n := len(q)
	for n > 0 && q[n-1].at() > t {
		n--
	}
	switch {
	case n == 0:
	case n == len(q) && len(*cut) == 0:
		*live, *cut = (*cut)[:0], q
	default:
		*cut = append(*cut, q[:n]...)
		m := copy(q, q[n:])
		clear(q[m:])
		*live = q[:m]
	}
}

// reclaim returns the cut batch's written spans to the lane's free list and
// empties the batch for reuse as the next live batch.
func (l *LaneSink) reclaim() {
	for _, q := range l.cut.spans {
		l.free = append(l.free, q.s)
	}
	clear(l.cut.spans)
	clear(l.cut.events)
	clear(l.cut.samples)
	l.cut.spans, l.cut.events, l.cut.samples = l.cut.spans[:0], l.cut.events[:0], l.cut.samples[:0]
}

// Drain writes every cut span and event line, merged across lanes in (key,
// lane, lane-FIFO) order, and observes the cut samples into the series. It
// reads only cut batches, so lanes may feed their live batches meanwhile.
func (w *MergeWriter) Drain() {
	if !w.undrained {
		return // the cut batches were written already
	}
	clear(w.cursor)
	for {
		best := -1
		var bestKey time.Duration
		for i, l := range w.lanes {
			if q := l.cut.spans; w.cursor[i] < len(q) {
				if k := q[w.cursor[i]].key; best < 0 || k < bestKey {
					best, bestKey = i, k
				}
			}
		}
		if best < 0 {
			break
		}
		w.writeSpan(w.lanes[best].cut.spans[w.cursor[best]].s)
		w.cursor[best]++
	}
	// Samples: one lane owns each (prefixed) series, so a per-lane drain in
	// lane order preserves every series' lane-FIFO contents.
	for _, l := range w.lanes {
		for _, q := range l.cut.samples {
			w.series.Observe(q.e.Detail, q.e.At, q.e.Value)
		}
	}
	if w.haveEvents {
		clear(w.cursor)
		for {
			best := -1
			var bestKey time.Duration
			for i, l := range w.lanes {
				if q := l.cut.events; w.cursor[i] < len(q) {
					if k := q[w.cursor[i]].key; best < 0 || k < bestKey {
						best, bestKey = i, k
					}
				}
			}
			if best < 0 {
				break
			}
			if w.err == nil {
				w.buf = appendEventLine(w.buf[:0], w.lanes[best].cut.events[w.cursor[best]].e)
				if _, err := w.events.Write(w.buf); err != nil {
					w.err = err
				}
			}
			w.cursor[best]++
		}
	}
	w.undrained = false
}

func (w *MergeWriter) writeSpan(s *Span) {
	if w.err != nil {
		return
	}
	w.buf = appendSpanLine(w.buf[:0], s)
	if _, err := w.spans.Write(w.buf); err != nil {
		w.err = err
		return
	}
	w.written++
}

// Close drains every queue, writes the spans of requests still open when
// the lanes' runs ended in the StreamWriter's deterministic (Arrived, Tenant,
// Req) order merged across lanes, flushes the buffers, and returns the first
// error encountered.
func (w *MergeWriter) Close() error {
	w.FlushThrough(1<<63 - 1)
	var open []*Span
	for _, l := range w.lanes {
		open = append(open, l.open...)
		l.open = nil
	}
	slices.SortFunc(open, ArrivalOrder)
	for _, s := range open {
		w.writeSpan(s)
	}
	if err := w.spans.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if w.events != nil {
		if err := w.events.Flush(); err != nil && w.err == nil {
			w.err = err
		}
	}
	return w.err
}

// Err returns the first write error encountered so far; errors are sticky,
// like StreamWriter's.
func (w *MergeWriter) Err() error { return w.err }

// Series returns the time series collected from Sample events (series names
// carry a "t<lane>/" prefix when the writer has more than one lane).
func (w *MergeWriter) Series() *SeriesSet { return w.series }

// SpansWritten is the number of spans flushed so far.
func (w *MergeWriter) SpansWritten() int { return w.written }

// PeakQueued is the maximum number of requests, spans and event lines any
// single lane held at once (in flight plus its live batch) — the writer's
// memory high-water mark per lane; cut batches awaiting Drain are not
// counted. Call it as Cut is called: while no lane feeds and no Drain runs.
func (w *MergeWriter) PeakQueued() int {
	peak := 0
	for _, l := range w.lanes {
		if l.peak > peak {
			peak = l.peak
		}
	}
	return peak
}

// WithTenant returns a sink that stamps tenant into every event, and every
// span when s is a SpanSink, before forwarding — how sharded lanes, each a
// single-tenant simulation emitting Tenant 0, are told apart by a shared
// consumer (the live observability plane's hub counts per tenant). A nil
// sink stays nil, preserving the disabled-telemetry fast path.
func WithTenant(s Sink, tenant int) Sink {
	if s == nil {
		return nil
	}
	t := tenantSink{s: s, tenant: tenant}
	if ss, ok := s.(SpanSink); ok {
		return tenantSpanSink{tenantSink: t, ss: ss}
	}
	return t
}

type tenantSink struct {
	s      Sink
	tenant int
}

func (t tenantSink) Event(e Event) {
	e.Tenant = t.tenant
	t.s.Event(e)
}

func (t tenantSink) Lifecycle() bool { return WantsLifecycle(t.s) }

type tenantSpanSink struct {
	tenantSink
	ss SpanSink
}

func (t tenantSpanSink) Arrive() { t.ss.Arrive() }
func (t tenantSpanSink) Step()   { t.ss.Step() }

// Span forwards s with the tenant stamped, restoring it afterwards: other
// sinks of a fan-out share the same span.
func (t tenantSpanSink) Span(s *Span) {
	orig := s.Tenant
	s.Tenant = t.tenant
	t.ss.Span(s)
	s.Tenant = orig
}
