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

// benchFeed returns n spans in the order the runtime hands them over: batch
// jobs of one to four requests, which share every stamp but their ID and
// arrival, on one node, with the execution time set by the batch size.
// Arrivals are three hours in, fourteen digits of nanoseconds.
func benchFeed(n int) []Span {
	feed := make([]Span, 0, n+4)
	at := 3 * time.Hour
	for job := int64(1); len(feed) < n; job++ {
		size := 1 + int(job*7%4)
		var s Span
		s.Reset(0, 0)
		s.Node, s.Spec, s.Job, s.BatchSize, s.Mode = 1, "g4dn.xlarge", job, size, "spatial"
		if job%3 == 0 {
			s.Mode = "queued"
		}
		s.Dispatched = at + 9*time.Millisecond
		s.Queued = s.Dispatched
		s.ExecStart = s.Queued + time.Duration(job%2)*time.Millisecond
		s.ExecEnd = s.ExecStart + time.Duration(20+size)*time.Millisecond
		s.Completed = s.ExecEnd
		for i := range size {
			s.Req = int64(len(feed))
			s.Arrived = at + time.Duration(i)*time.Millisecond
			s.Batched = s.Arrived
			feed = append(feed, s)
		}
		at += 25 * time.Millisecond
	}
	return feed[:n]
}

// BenchmarkAppendSpanLine and BenchmarkAppendEventLine isolate the JSONL
// encoders that replaced encoding/json on the export paths; the span
// encoder is fed batch jobs' spans, the order the runtime hands them over.
func BenchmarkAppendSpanLine(b *testing.B) {
	feed := benchFeed(4096)
	var (
		enc spanEncoder
		buf []byte
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &feed[i%len(feed)]
		buf = enc.appendLine(buf[:0], s, s.Tenant)
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

// benchEpoch is the spans each lane feeds between two barriers in the
// merge benchmarks: about one 2 s epoch of a 225 req/s lane.
const benchEpoch = 512

// BenchmarkLaneSinkSpan measures one lane's side of the merged span path per
// request: Arrive and a finished span, into one of four lanes, with a
// FlushThrough into a discarded writer after every epoch.
func BenchmarkLaneSinkSpan(b *testing.B) {
	w := NewMergeWriter(io.Discard, nil, 4)
	l := w.Lane(2)
	feed := benchFeed(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Arrive()
		l.Span(&feed[i%len(feed)])
		if i%benchEpoch == benchEpoch-1 {
			w.FlushThrough(1<<63 - 1)
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMergeDrain measures the coordinator's side per span: Cut and
// Drain of four lanes' interleaved epochs into a discarded writer. Feeding
// the lanes is off the clock. Each epoch replays the feed a minute later
// than the last, so lane keys keep interleaving as a run's do.
func BenchmarkMergeDrain(b *testing.B) {
	const lanes = 4
	w := NewMergeWriter(io.Discard, nil, lanes)
	feed := benchFeed(benchEpoch)
	b.ReportAllocs()
	b.ResetTimer()
	for epoch, done := 0, 0; done < b.N; epoch, done = epoch+1, done+lanes*len(feed) {
		b.StopTimer()
		for lane := range lanes {
			for i := range feed {
				// Offset the lanes so their lines interleave in the merge.
				s := feed[i]
				s.Completed += time.Duration(epoch)*time.Minute + time.Duration(lane)*3*time.Millisecond
				w.Lane(lane).Arrive()
				w.Lane(lane).Span(&s)
			}
		}
		b.StartTimer()
		w.Cut(1<<63 - 1)
		w.Drain()
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}
