package telemetry

import (
	"io"
	"testing"
	"time"
)

// BenchmarkStreamWriterLifecycle measures the streaming span path per
// request as the runtime drives it — one Arrive and one finished span,
// JSONL-encoded against a discarded writer — so only the telemetry work is
// on the clock.
func BenchmarkStreamWriterLifecycle(b *testing.B) {
	w := NewStreamWriter(io.Discard, nil)
	defer w.Close()
	sp, _ := served(0, 0, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Req, sp.Job = int64(i), int64(i+1)
		w.Arrive()
		w.Span(sp)
	}
}

// BenchmarkAppendSpanLine and BenchmarkAppendEventLine isolate the JSONL
// encoders that replaced encoding/json on the export paths.
func BenchmarkAppendSpanLine(b *testing.B) {
	s := new(Span)
	s.Reset(12345, 2)
	s.Node, s.Spec, s.Job, s.BatchSize, s.Mode = 1, "g4dn.xlarge", 678, 16, "spatial"
	s.Arrived = 3 * time.Second
	s.Dispatched = s.Arrived + time.Millisecond
	s.Queued = s.Dispatched + 2*time.Millisecond
	s.ExecStart = s.Queued + 3*time.Millisecond
	s.ExecEnd = s.ExecStart + 40*time.Millisecond
	s.Completed = s.ExecEnd
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendSpanLine(buf[:0], s)
	}
}

func BenchmarkAppendEventLine(b *testing.B) {
	e := Ev(3*time.Second, Dispatched)
	e.Req, e.Job, e.Node, e.Spec, e.N, e.Detail = 12345, 678, 1, "g4dn.xlarge", 16, "spatial"
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendEventLine(buf[:0], e)
	}
}
