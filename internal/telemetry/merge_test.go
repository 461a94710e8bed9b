package telemetry

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/raceflag"
)

// feedLaneLifecycle hands sink one request served as job: it arrives at
// base, is dispatched, executes and completes 21 ms later.
func feedLaneLifecycle(sink SpanSink, req, job int64, base time.Duration) {
	sp, mid := served(req, 0, job, base)
	handOver(sink, sp, mid...)
}

// A single-lane MergeWriter is byte-identical to StreamWriter: same spans
// JSONL, same events JSONL, sample lines included — the merge reduces to the
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
	if swSpans.Len() == 0 || !strings.Contains(swEvents.String(), `"kind":"sample"`) {
		t.Fatalf("exports empty: spans=%d bytes, events without sample lines:\n%s",
			swSpans.Len(), swEvents.String())
	}
	if mw.SpansWritten() != sw.SpansWritten() {
		t.Errorf("spans written: merge %d vs stream %d", mw.SpansWritten(), sw.SpansWritten())
	}
}

// The merged output is a pure function of the per-lane feeds: flushing at
// different barrier cadences (or only at Close), or cutting and draining in
// separate steps with keys beyond the cut still queued, yields identical
// bytes. This is the property that makes `-j N` byte-identical for every N —
// worker count only changes when output is written, never what it contains.
func TestMergeWriterFlushCadenceIndependent(t *testing.T) {
	const (
		atClose = iota // flush only at Close
		flush          // FlushThrough at every other step
		cut            // Cut (sometimes twice) then Drain mid-step
	)
	run := func(mode int) (spans, events string) {
		var sb, eb bytes.Buffer
		mw := NewMergeWriter(&sb, &eb, 3)
		leftQueued := false
		// Interleave lanes at different offsets so merge order is exercised.
		for step := 0; step < 12; step++ {
			for lane := 0; lane < 3; lane++ {
				req := int64(step)
				base := time.Duration(step*50+lane*7) * time.Millisecond
				feedLaneLifecycle(mw.Lane(lane), req, req+1, base)
				s := Ev(base, Sample)
				s.Detail, s.Value = "pending_requests", float64(step)
				mw.Lane(lane).Event(s)
			}
			switch {
			case mode == flush && step%2 == 1:
				mw.FlushThrough(time.Duration(step*50) * time.Millisecond)
			case mode == cut:
				// Lanes 1 and 2 and every completion lie beyond the cut.
				at := time.Duration(step*50+3) * time.Millisecond
				if step%3 == 0 {
					mw.Cut(at - 2*time.Millisecond) // a second Cut appends
				}
				mw.Cut(at)
				for _, l := range mw.lanes {
					leftQueued = leftQueued || l.live.spans.n > 0 || l.live.events.n > 0
				}
				mw.Drain()
			}
		}
		if mode == cut && !leftQueued {
			t.Fatal("no key lay beyond a cut; the partial cut is untested")
		}
		if err := mw.Close(); err != nil {
			t.Fatal(err)
		}
		return sb.String(), eb.String()
	}
	s1, e1 := run(atClose)
	if s1 == "" || e1 == "" {
		t.Fatal("empty exports")
	}
	for _, mode := range []int{flush, cut} {
		s, e := run(mode)
		if s != s1 {
			t.Errorf("mode %d: spans depend on flush cadence:\n%s\nvs\n%s", mode, s1, s)
		}
		if e != e1 {
			t.Errorf("mode %d: events JSONL depends on flush cadence", mode)
		}
	}
}

// Lanes feed their live batches while another goroutine drains the previous
// cut, as the sharded executor runs them; the race detector checks that the
// two never share memory, and the bytes must match a writer flushed only at
// Close.
func TestMergeWriterDrainWhileLanesFeed(t *testing.T) {
	const lanes, epochs, perEpoch = 3, 20, 8
	feed := func(l *LaneSink, lane, epoch int) {
		for j := 0; j < perEpoch; j++ {
			req := int64(epoch*perEpoch + j)
			base := time.Duration(epoch*100+j*9+lane*4) * time.Millisecond
			feedLaneLifecycle(l, req, req+1, base)
			s := Ev(base, Sample)
			s.Detail, s.Value = "active_jobs", float64(j)
			l.Event(s)
		}
	}
	run := func(overlap bool) (spans, events string) {
		var sb, eb bytes.Buffer
		mw := NewMergeWriter(&sb, &eb, lanes)
		for epoch := 0; epoch < epochs; epoch++ {
			var wg sync.WaitGroup
			if overlap {
				wg.Add(1)
				go func() {
					defer wg.Done()
					mw.Drain()
				}()
			}
			wg.Add(lanes)
			for lane := 0; lane < lanes; lane++ {
				go func() {
					defer wg.Done()
					feed(mw.Lane(lane), lane, epoch)
				}()
			}
			wg.Wait()
			if overlap {
				// Every key of this epoch lies below the next epoch's.
				mw.Cut(time.Duration(epoch*100+99) * time.Millisecond)
			}
		}
		if err := mw.Close(); err != nil {
			t.Fatal(err)
		}
		return sb.String(), eb.String()
	}
	s1, e1 := run(false)
	s2, e2 := run(true)
	if s1 == "" || e1 == "" {
		t.Fatal("empty exports")
	}
	if s1 != s2 || e1 != e2 {
		t.Errorf("draining while lanes feed changed the output: spans %v, events %v", s1 == s2, e1 == e2)
	}
}

// Multi-lane writers stamp the lane index into Tenant and prefix the series
// names of sample lines, so lanes are distinguishable in every export.
func TestMergeWriterStampsLanes(t *testing.T) {
	var sb, eb bytes.Buffer
	mw := NewMergeWriter(&sb, &eb, 2)
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
	if want := `"tenant":1,"value":1.5,"detail":"t1/cost_usd"}`; !strings.Contains(eb.String(), want) {
		t.Errorf("multi-lane sample line not stamped (want %s):\n%s", want, eb.String())
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

// Once a lane's buffers have grown, the merged span path allocates nothing:
// encoding spans into the live batch, the barrier Cut and the Drain that
// writes them.
func TestLaneSinkSpanAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc gates run in non-race builds")
	}
	const lanes = 3
	w := NewMergeWriter(io.Discard, nil, lanes)
	feed := benchFeed(256)
	epoch := func() {
		for lane := range lanes {
			for i := range feed {
				w.Lane(lane).Arrive()
				w.Lane(lane).Span(&feed[i])
			}
		}
		w.Cut(1<<63 - 1)
		w.Drain()
	}
	epoch()
	epoch() // both sides of each lane's double buffer have grown
	if allocs := testing.AllocsPerRun(50, epoch); allocs != 0 {
		t.Fatalf("steady-state Span+Cut+Drain allocates %.1f objects per epoch, want 0", allocs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
