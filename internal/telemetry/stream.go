package telemetry

import (
	"bufio"
	"io"
)

// StreamWriter is the bounded-memory SpanSink: it writes each span to its
// JSONL writer the moment the runtime hands it over, instead of buffering
// the whole run like the Recorder. Memory is constant, independent of trace
// length. Spans appear in the output in completion order, then the spans
// still open when the run ended in (Arrived, Tenant, Req) order (the
// Recorder writes arrival order); the per-span bytes are identical. The
// optional events writer receives the raw event feed line by line,
// byte-identical to Recorder.WriteEventsJSONL; without one the writer
// declines lifecycle events.
type StreamWriter struct {
	spans  *bufio.Writer
	events *bufio.Writer
	enc    spanEncoder
	buf    []byte // reused JSONL line buffer

	inFlight int // requests arrived whose span has not been handed over
	written  int
	peak     int
	err      error
}

// NewStreamWriter returns a StreamWriter flushing spans to spans and, when
// events is non-nil, the raw event feed to events. Call Close to flush the
// underlying buffers.
func NewStreamWriter(spans, events io.Writer) *StreamWriter {
	w := &StreamWriter{spans: bufio.NewWriter(spans)}
	if events != nil {
		w.events = bufio.NewWriter(events)
	}
	return w
}

// Lifecycle reports whether the writer consumes lifecycle events: only to
// write the raw event feed.
func (w *StreamWriter) Lifecycle() bool { return w.events != nil }

// Event implements Sink. Write errors are sticky and reported by Close.
func (w *StreamWriter) Event(e Event) {
	if w.events != nil && w.err == nil {
		w.buf = appendEventLine(w.buf[:0], e)
		if _, err := w.events.Write(w.buf); err != nil {
			w.err = err
		}
	}
}

// Arrive implements SpanSink: one more request is in flight.
func (w *StreamWriter) Arrive() {
	w.inFlight++
	if w.inFlight > w.peak {
		w.peak = w.inFlight
	}
}

// Span implements SpanSink: it encodes the span and writes it at once.
func (w *StreamWriter) Span(s *Span) {
	w.inFlight--
	if w.err != nil {
		return
	}
	w.buf = w.enc.appendLine(w.buf[:0], s, s.Tenant)
	if _, err := w.spans.Write(w.buf); err != nil {
		w.err = err
		return
	}
	w.written++
}

// Close flushes the buffers and returns the first error encountered.
func (w *StreamWriter) Close() error {
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

// Err returns the first write error encountered so far; nil while healthy.
// Errors are sticky: after the first failure no further spans or events are
// written, and Close reports the same error. Long-running callers (the
// streaming CLI) can poll Err mid-run instead of discovering a dead sink
// only at Close.
func (w *StreamWriter) Err() error { return w.err }

// SpansWritten is the number of spans written so far.
func (w *StreamWriter) SpansWritten() int { return w.written }

// PeakInFlight is the maximum number of requests in flight at once: arrived,
// with their span not yet handed over.
func (w *StreamWriter) PeakInFlight() int { return w.peak }
