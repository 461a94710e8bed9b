package telemetry

import "io"

// StreamWriter is the bounded-memory SpanSink of an unsharded run: a
// one-lane MergeWriter and that lane's sink, which flushes itself. Spans
// appear in the output in completion order, then the spans still open when
// the run ended in (Arrived, Tenant, Req) order (the Recorder writes arrival
// order); the per-span bytes are identical. The optional events writer
// receives the raw event feed line by line, byte-identical to
// Recorder.WriteEventsJSONL; without one the writer declines lifecycle
// events.
//
// With no barrier to flush at, the lane flushes through its own key as soon
// as its live batch holds the writer's output buffer's worth of encoded
// lines, so memory stays constant, independent of trace length. Write
// errors are sticky, surface from Err once a flush meets them, and are
// reported by Close.
type StreamWriter struct {
	*MergeWriter
	lane *LaneSink
}

// NewStreamWriter returns a StreamWriter flushing spans to spans and, when
// events is non-nil, the raw event feed to events. Call Close to flush the
// underlying buffers.
func NewStreamWriter(spans, events io.Writer) *StreamWriter {
	w := NewMergeWriter(spans, events, 1)
	return &StreamWriter{MergeWriter: w, lane: w.Lane(0)}
}

// Lifecycle reports whether the writer consumes lifecycle events: only to
// write the raw event feed.
func (w *StreamWriter) Lifecycle() bool { return w.lane.Lifecycle() }

// Arrive implements SpanSink: one more request is in flight.
func (w *StreamWriter) Arrive() { w.lane.Arrive() }

// Event implements Sink.
func (w *StreamWriter) Event(e Event) {
	w.lane.Event(e)
	w.flushFull()
}

// Span implements SpanSink.
func (w *StreamWriter) Span(s *Span) {
	w.lane.Span(s)
	w.flushFull()
}

// flushFull writes the lane's live batch once it holds outBuffer bytes.
func (w *StreamWriter) flushFull() {
	if w.lane.live.spans.size()+w.lane.live.events.size() >= outBuffer {
		w.FlushThrough(w.lane.key)
	}
}
