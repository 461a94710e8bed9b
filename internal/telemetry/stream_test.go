package telemetry

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// feedMany hands n requests to s the way the runtime does, with every k-th
// request failed before dispatch, plus one request still open when the
// "run" ends (handed over last) and a sample event for the series path.
func feedMany(s SpanSink, n int) {
	for i := 0; i < n; i++ {
		req := int64(i + 1)
		if i%7 == 3 {
			sp := new(Span)
			sp.Reset(req, 0)
			sp.Arrived, sp.Batched = ms(i), ms(i)
			sp.Completed, sp.Failed = ms(i+100), true
			handOver(s, sp)
			continue
		}
		sp, mid := served(req, 0, req, ms(i))
		sp.Node = i % 3
		handOver(s, sp, mid...)
	}
	open := new(Span)
	open.Reset(int64(n+1), 0)
	open.Arrived, open.Batched = ms(n+1), ms(n+1)
	arrive(s, open)
	smp := Ev(ms(n+2), Sample)
	smp.Detail, smp.Value = "pool/busy", 3
	s.Event(smp)
	finish(s, open)
}

func sortLines(b []byte) []string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	sort.Strings(lines)
	return lines
}

// TestStreamWriterMatchesRecorder: the streaming writer must emit the same
// span set as the buffering Recorder (same bytes per span; ordering is
// completion order vs. arrival order) and a byte-identical raw event feed.
func TestStreamWriterMatchesRecorder(t *testing.T) {
	rec := NewRecorder()
	var spanBuf, eventBuf bytes.Buffer
	sw := NewStreamWriter(&spanBuf, &eventBuf)

	feedMany(Combine(rec, sw).(SpanSink), 200)
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var recSpans, recEvents bytes.Buffer
	if err := rec.WriteSpansJSONL(&recSpans); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteEventsJSONL(&recEvents); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(recEvents.Bytes(), eventBuf.Bytes()) {
		t.Error("streamed events JSONL is not byte-identical to the Recorder's")
	}
	got, want := sortLines(spanBuf.Bytes()), sortLines(recSpans.Bytes())
	if len(got) != len(want) {
		t.Fatalf("span count: stream %d, recorder %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("span line %d differs:\nstream   %s\nrecorder %s", i, got[i], want[i])
		}
	}
	if sw.SpansWritten() != len(rec.Spans()) {
		t.Errorf("SpansWritten = %d, want %d", sw.SpansWritten(), len(rec.Spans()))
	}
}

// TestStreamWriterBoundedMemory: the writer's lane flushes itself, so its
// queued high-water mark stays under the flush bound — an output buffer's
// worth of the shortest span line, plus the request in flight — not the
// total request count.
func TestStreamWriterBoundedMemory(t *testing.T) {
	var spanBuf bytes.Buffer
	sw := NewStreamWriter(&spanBuf, nil)
	feedMany(sw, 5000)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	shortest := spanBuf.Len()
	for _, line := range bytes.SplitAfter(spanBuf.Bytes(), []byte("\n")) {
		if len(line) > 0 && len(line) < shortest {
			shortest = len(line)
		}
	}
	// feedMany keeps one request in flight at a time (each completes
	// before the next arrives).
	if bound := outBuffer/shortest + 1; sw.PeakQueued() > bound {
		t.Errorf("PeakQueued = %d; want at most %d, the flush bound", sw.PeakQueued(), bound)
	}
	if sw.SpansWritten() != 5001 {
		t.Errorf("SpansWritten = %d, want 5001 (incl. the never-completed span)", sw.SpansWritten())
	}
}

// TestStreamWriterWriteError: write failures surface from Close.
func TestStreamWriterWriteError(t *testing.T) {
	sw := NewStreamWriter(failWriter{}, nil)
	feedLifecycle(sw)
	if err := sw.Close(); err == nil {
		t.Fatal("Close did not report the write error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("disk full") }
