package telemetry

import (
	"bufio"
	"io"
	"math"
	"slices"
	"time"
)

// MergeWriter writes spans (and, optionally, the raw event feed) from
// several concurrent simulation lanes into one output, in a deterministic virtual-time merge order. Each
// lane gets its own SpanSink (Lane), safe to feed from that lane's
// goroutine.
//
// Each lane encodes its span and event lines itself, as they arrive, into
// lane-owned byte chunks that it recycles once they are written; the writer
// only merges bytes. Output leaves each lane in two steps, so that merging
// and writing can overlap the lanes' next epoch:
//   - Cut(t) moves every queued span and event line with key <= t
//     from each lane's live batch into its cut batch. Only the coordinator
//     calls it, while no lane feeds and no Drain runs.
//   - Drain merges and writes the cut batches, one write per run of lines
//     from the same lane and chunk. It never touches a live batch, so it may run on
//     the coordinator while the lanes feed; one Drain at a time, never
//     concurrently with Cut.
//
// FlushThrough(t) is Cut(t) and Drain back to back, and Close flushes
// everything; call them, PeakQueued, SpansWritten and Err as Cut is
// called (the sharded executor calls them between epochs, after joining the
// lane workers).
//
// Merge order is (key, lane, arrival-within-lane), where key is the lane's
// running maximum of event and span-completion times — a deterministic
// function of the lane's own simulation, never of worker scheduling — so
// `-j N` output is byte-identical for every N. With a single lane the merge
// reduces to the lane's FIFO, which is exactly completion order;
// StreamWriter is that one-lane writer, flushed by its lane.
//
// Multi-lane writers stamp the lane index into every event's and span's Tenant
// (lanes are single-tenant simulations), so spans and event lines identify
// their lane, and a Sample line's series name becomes LaneSeriesName's
// "t<lane>/<name>", the name MergeLanes gives that lane's series. A one-lane
// writer stamps nothing. The writer keeps no series: attach a series set per
// lane beside it when an output reads them.
type MergeWriter struct {
	lanes []*LaneSink

	spans      *bufio.Writer
	events     *bufio.Writer
	haveEvents bool
	enc        spanEncoder     // encodes the open spans at Close
	buf        []byte          // reused JSONL line buffer
	src        []*lines        // Drain's per-lane queues, reused
	cursor     []int           // Drain's per-lane merge position, reused
	heads      []time.Duration // Drain's per-lane next key, reused

	// undrained is set by Cut and cleared by Drain: while it is set the cut
	// batches still hold unwritten lines, so a further Cut appends to them
	// instead of recycling them.
	undrained bool

	written int
	err     error
}

// batch is one side of a lane's double buffer.
type batch struct {
	spans  lines
	events lines // event lines, when the writer has an events output
}

// LaneSink is one lane's SpanSink into a MergeWriter. It is not safe for
// concurrent use; each lane feeds its own. Distinct lanes may feed
// concurrently, and concurrently with Drain: a lane sink touches only its
// own live batch, encoder and free chunks, never the shared writer state or
// its cut batch, which only Cut, Drain and Close touch.
type LaneSink struct {
	w     *MergeWriter
	lane  int
	stamp bool          // multi-lane writer: stamp the lane into Tenant
	key   time.Duration // running max of observed event and completion times
	peak  int           // lane-local high-water mark of the live batch

	inFlight int     // requests arrived whose span has not been handed over
	open     []*Span // spans of requests still open when the run ended

	enc  spanEncoder
	live batch    // fed by the lane
	cut  batch    // handed to Drain; emptied at the next Cut
	free [][]byte // written chunks, reused by the live batch

	// detailIntern caches the lane's "t<lane>/<series>" sample names. The
	// gauge-name set is tiny and fixed per run, so every Sample event after
	// the first per series reuses one interned string instead of a Sprintf.
	detailIntern map[string]string
}

// outBuffer sizes the writer's output buffers. Drain writes runs of a few
// hundred bytes, so the buffer sets how often a file output costs a write
// system call: at bufio's default 4 KiB, one every ~18 span lines.
const outBuffer = 16 << 10

// NewMergeWriter returns a writer merging `lanes` lane feeds into the spans
// writer and, when events is non-nil, the raw event feed. Call Lane(i) for
// each lane's sink, FlushThrough (or Cut and Drain) at barriers, and Close
// at the end.
func NewMergeWriter(spans, events io.Writer, lanes int) *MergeWriter {
	if lanes < 1 {
		lanes = 1
	}
	w := &MergeWriter{src: make([]*lines, lanes), cursor: make([]int, lanes), heads: make([]time.Duration, lanes)}
	w.spans = bufio.NewWriterSize(spans, outBuffer)
	if events != nil {
		w.events = bufio.NewWriterSize(events, outBuffer)
		w.haveEvents = true
	}
	w.lanes = make([]*LaneSink, lanes)
	for i := range w.lanes {
		w.lanes[i] = &LaneSink{w: w, lane: i, stamp: lanes > 1}
	}
	return w
}

// Lane returns lane i's Sink.
func (w *MergeWriter) Lane(i int) *LaneSink { return w.lanes[i] }

// Lifecycle reports whether the lane consumes lifecycle events: only when
// the writer has an events output.
func (l *LaneSink) Lifecycle() bool { return l.w.haveEvents }

// Event implements Sink for one lane: it encodes the event line into the
// live batch.
func (l *LaneSink) Event(e Event) {
	if e.At > l.key {
		// Event times are nondecreasing per lane in practice; the running
		// max makes the flush key monotone even if a source ever emits a
		// timestamp from before the clock (keys must not regress past an
		// already-flushed barrier).
		l.key = e.At
	}
	if !l.w.haveEvents {
		return
	}
	if l.stamp {
		e.Tenant = l.lane
		if e.Kind == Sample {
			e.Detail = l.prefixed(e.Detail)
		}
	}
	q := &l.live.events
	c := q.tail(&l.free)
	*c = appendEventLine(*c, e)
	q.push(l.key, 1)
	l.sample()
}

// Arrive implements SpanSink: one more request is in flight.
func (l *LaneSink) Arrive() {
	l.inFlight++
	l.sample()
}

// Span implements SpanSink. The lane encodes a finished span's line into its
// live batch under the completion time; a span still open at the end of the
// run is copied and held for Close.
func (l *LaneSink) Span(s *Span) {
	l.inFlight--
	tenant := s.Tenant
	if l.stamp {
		tenant = l.lane
	}
	if !s.Done() {
		c := new(Span)
		*c = *s
		c.Tenant = tenant
		l.open = append(l.open, c)
		return
	}
	if s.Completed > l.key {
		l.key = s.Completed
	}
	q := &l.live.spans
	c := q.tail(&l.free)
	*c = l.enc.appendLine(*c, s, tenant)
	q.push(l.key, 1)
}

// sample updates the lane's queue high-water mark. Only Arrive and Event
// grow the queue, and both sample right after; Span moves a request from in
// flight into a batch and Cut only shrinks it, so no peak is missed.
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
	p := LaneSeriesName(l.lane, detail)
	l.detailIntern[detail] = p
	return p
}

// queued is the lane's current buffered load: requests in flight and open
// spans, plus the span and event lines of its live batch. Cut batches do
// not count: they are the writer's, no longer the lane's.
func (l *LaneSink) queued() int {
	return l.inFlight + len(l.open) + l.live.spans.n + l.live.events.n
}

// FlushThrough writes every queued span and event line with key <= t, merged
// across lanes in (key, lane, lane-FIFO) order: Cut(t), then Drain, with the
// written batches emptied at once. Call it as Cut is called.
func (w *MergeWriter) FlushThrough(t time.Duration) {
	w.Cut(t)
	w.Drain()
	for _, l := range w.lanes {
		l.reclaim()
	}
}

// Cut hands every queued span and event line with key <= t to the
// next Drain. At a barrier every queued key is <= t and the cut is a swap of
// each lane's two batches; it copies a lane's lines only when some key lies
// beyond t. Batches a previous Drain wrote are emptied here. Only the
// coordinator calls Cut, while no lane feeds and no Drain runs.
func (w *MergeWriter) Cut(t time.Duration) {
	for _, l := range w.lanes {
		if !w.undrained {
			l.reclaim()
		}
		cutThrough(&l.live.spans, &l.cut.spans, t, &l.free)
		cutThrough(&l.live.events, &l.cut.events, t, &l.free)
	}
	w.undrained = true
}

// reclaim empties the cut batch for reuse as a live batch, its chunks back
// on the free list. When the live batch is empty too — the lane fed nothing
// since the cut, as when FlushThrough cuts and drains in one step — the two
// swap back, so the lane keeps the line indexes it already grew and a writer
// flushed at every barrier grows one set per lane, not two.
func (l *LaneSink) reclaim() {
	l.cut.spans.release(&l.free)
	l.cut.events.release(&l.free)
	if l.live.spans.n == 0 && l.live.events.n == 0 {
		l.live, l.cut = l.cut, l.live
	}
}

// Drain writes every cut span and event line, merged across lanes in (key,
// lane, lane-FIFO) order. It reads only cut batches, so lanes may feed their
// live batches meanwhile.
func (w *MergeWriter) Drain() {
	if !w.undrained {
		return // the cut batches were written already
	}
	for i, l := range w.lanes {
		w.src[i] = &l.cut.spans
	}
	w.written += w.merge(w.spans)
	if w.haveEvents {
		for i, l := range w.lanes {
			w.src[i] = &l.cut.events
		}
		w.merge(w.events)
	}
	w.undrained = false
}

// merge writes the lines of the queues in w.src to out in (key, queue,
// FIFO) order, one write per run of consecutive line groups from the same
// queue and chunk, and returns the number of lines written. Nothing is written
// once an error is sticky.
func (w *MergeWriter) merge(out *bufio.Writer) int {
	qs, cur, heads := w.src, w.cursor, w.heads
	// heads[i] is the key of queue i's next group, or -1 once it has none:
	// keys are lane times, never negative.
	for i, q := range qs {
		cur[i], heads[i] = 0, -1
		if len(q.groups) > 0 {
			heads[i] = q.groups[0].key
		}
	}
	written := 0
	for {
		// best is the queue whose next line comes first; next the queue whose
		// next line would come after it (lowest key, then lowest index).
		best, next := -1, len(qs)
		var bestKey, nextKey time.Duration = -1, math.MaxInt64
		for i, k := range heads {
			switch {
			case k < 0:
			case best < 0:
				best, bestKey = i, k
			case k < bestKey:
				next, nextKey = best, bestKey
				best, bestKey = i, k
			case k < nextKey:
				next, nextKey = i, k
			}
		}
		if best < 0 {
			return written
		}
		// best's groups stay first while their keys are below next's, or
		// equal to it with best the lower lane.
		q := qs[best]
		from, to := cur[best], cur[best]+1
		for to < len(q.groups) && (q.groups[to].key < nextKey || q.groups[to].key == nextKey && best < next) {
			to++
		}
		cur[best], heads[best] = to, -1
		if to < len(q.groups) {
			heads[best] = q.groups[to].key
		}
		if w.err != nil {
			continue
		}
		n, err := q.writeRun(out, from, to)
		written += n
		if err != nil {
			w.err = err
		}
	}
}

// Close drains every queue, writes the spans of requests still open when
// the lanes' runs ended in deterministic (Arrived, Tenant, Req) order
// merged across lanes, flushes the buffers, and returns the first
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
		if w.err != nil {
			break
		}
		w.buf = w.enc.appendLine(w.buf[:0], s, s.Tenant)
		if _, err := w.spans.Write(w.buf); err != nil {
			w.err = err
			break
		}
		w.written++
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

// Err returns the first write error encountered so far. Errors are sticky:
// after the first failure nothing more is written, and Close reports the
// same error.
func (w *MergeWriter) Err() error { return w.err }

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

// Span forwards s with the tenant stamped, restoring it afterwards: other
// sinks of a fan-out share the same span.
func (t tenantSpanSink) Span(s *Span) {
	orig := s.Tenant
	s.Tenant = t.tenant
	t.ss.Span(s)
	s.Tenant = orig
}
