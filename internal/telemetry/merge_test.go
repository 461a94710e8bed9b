package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// feedLaneLifecycle hands sink one request served as job: it arrives at
// base, is dispatched, executes and completes 21 ms later.
func feedLaneLifecycle(sink SpanSink, req, job int64, base time.Duration) {
	sp, mid := served(req, 0, job, base)
	handOver(sink, sp, mid...)
}

// A single-lane MergeWriter is byte-identical to StreamWriter: same spans
// JSONL, same events JSONL, same series CSV — the merge reduces to the
// lane's FIFO, which is StreamWriter's completion order.
func TestMergeWriterSingleLaneMatchesStreamWriter(t *testing.T) {
	var swSpans, swEvents, mwSpans, mwEvents bytes.Buffer
	sw := NewStreamWriter(&swSpans, &swEvents)
	mw := NewMergeWriter(&mwSpans, &mwEvents, 1)
	lane := mw.Lane(0)

	for i := int64(0); i < 20; i++ {
		base := time.Duration(i*40) * time.Millisecond
		feedLaneLifecycle(sw, i, i+1, base)
		feedLaneLifecycle(lane, i, i+1, base)
		s := Ev(base, Sample)
		s.Detail, s.Value = "pending_requests", float64(i)
		sw.Event(s)
		lane.Event(s)
	}
	// One request that never completes exercises the open-span path.
	open := new(Span)
	open.Reset(99, 0)
	open.Arrived, open.Batched = time.Second, time.Second
	for _, s := range []SpanSink{sw, lane} {
		handOver(s, open)
	}

	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(swSpans.Bytes(), mwSpans.Bytes()) {
		t.Errorf("single-lane spans differ from StreamWriter:\n%s\nvs\n%s",
			swSpans.String(), mwSpans.String())
	}
	if !bytes.Equal(swEvents.Bytes(), mwEvents.Bytes()) {
		t.Error("single-lane events JSONL differs from StreamWriter")
	}
	var swSeries, mwSeries bytes.Buffer
	if err := sw.Series().WriteCSV(&swSeries); err != nil {
		t.Fatal(err)
	}
	if err := mw.Series().WriteCSV(&mwSeries); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(swSeries.Bytes(), mwSeries.Bytes()) {
		t.Error("single-lane series CSV differs from StreamWriter")
	}
	if swSpans.Len() == 0 || swEvents.Len() == 0 || swSeries.Len() == 0 {
		t.Fatalf("exports empty: spans=%d events=%d series=%d",
			swSpans.Len(), swEvents.Len(), swSeries.Len())
	}
	if mw.SpansWritten() != sw.SpansWritten() {
		t.Errorf("spans written: merge %d vs stream %d", mw.SpansWritten(), sw.SpansWritten())
	}
}

// The merged output is a pure function of the per-lane feeds: flushing at
// different barrier cadences (or only at Close) yields identical bytes.
// This is the property that makes `-j N` byte-identical for every N —
// worker count only changes when flushes happen, never what they contain.
func TestMergeWriterFlushCadenceIndependent(t *testing.T) {
	run := func(flushEvery time.Duration) (spans, events string) {
		var sb, eb bytes.Buffer
		mw := NewMergeWriter(&sb, &eb, 3)
		// Interleave lanes at different offsets so merge order is exercised.
		for step := 0; step < 12; step++ {
			for lane := 0; lane < 3; lane++ {
				req := int64(step)
				base := time.Duration(step*50+lane*7) * time.Millisecond
				feedLaneLifecycle(mw.Lane(lane), req, req+1, base)
			}
			if flushEvery > 0 && step%2 == 1 {
				mw.FlushThrough(time.Duration(step*50) * time.Millisecond)
			}
		}
		if err := mw.Close(); err != nil {
			t.Fatal(err)
		}
		return sb.String(), eb.String()
	}
	s1, e1 := run(0)                     // flush only at Close
	s2, e2 := run(25 * time.Millisecond) // flush at barriers
	if s1 != s2 {
		t.Errorf("spans depend on flush cadence:\n%s\nvs\n%s", s1, s2)
	}
	if e1 != e2 {
		t.Error("events JSONL depends on flush cadence")
	}
	if s1 == "" || e1 == "" {
		t.Fatal("empty exports")
	}
}

// Multi-lane writers stamp the lane index into Tenant and prefix series
// names, so lanes are distinguishable in every export.
func TestMergeWriterStampsLanes(t *testing.T) {
	var sb bytes.Buffer
	mw := NewMergeWriter(&sb, nil, 2)
	feedLaneLifecycle(mw.Lane(0), 1, 1, 0)
	feedLaneLifecycle(mw.Lane(1), 1, 1, 0) // same req ID; must not collide
	s := Ev(0, Sample)
	s.Detail, s.Value = "cost_usd", 1.5
	mw.Lane(1).Event(s)
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpansJSONL(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (lane collision?)", len(spans))
	}
	tenants := map[int]bool{}
	for _, sp := range spans {
		tenants[sp.Tenant] = true
	}
	if !tenants[0] || !tenants[1] {
		t.Errorf("lane stamping missing: tenants seen %v", tenants)
	}
	names := mw.Series().Names()
	found := false
	for _, n := range names {
		if strings.HasPrefix(n, "t1/") {
			found = true
		}
	}
	if !found {
		t.Errorf("multi-lane series not prefixed: %v", names)
	}
}

// Merge order on key ties is (key, lane): lane 0's span precedes lane 1's
// when both complete at the same virtual instant.
func TestMergeWriterTieBreaksByLane(t *testing.T) {
	var sb bytes.Buffer
	mw := NewMergeWriter(&sb, nil, 2)
	// Feed lane 1 first; the merge must still put lane 0 first on equal keys.
	feedLaneLifecycle(mw.Lane(1), 7, 1, 0)
	feedLaneLifecycle(mw.Lane(0), 7, 1, 0)
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpansJSONL(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].Tenant != 0 || spans[1].Tenant != 1 {
		t.Fatalf("tie-break wrong: got tenants %v", []int{spans[0].Tenant, spans[1].Tenant})
	}
}
