package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refMergeWriter is the reference for MergeWriter's output: the writer as it
// was before lanes encoded their own lines. Lanes queue span and event
// structs; Drain merges them in (key, lane, FIFO) order and encodes each
// line with encoding/json. TestMergeWriterMatchesReference feeds both the
// same operations and compares the bytes.
type refMergeWriter struct {
	lanes     []*refLane
	spans     *bufio.Writer
	events    *bufio.Writer
	undrained bool
	written   int
}

type refSpan struct {
	key time.Duration
	s   Span
}

type refEvent struct {
	key time.Duration
	e   Event
}

type refLane struct {
	w              *refMergeWriter
	lane           int
	key            time.Duration
	peak, inFlight int
	open           []*Span
	liveSp, cutSp  []refSpan
	liveEv, cutEv  []refEvent
}

func newRefMergeWriter(spans, events io.Writer, lanes int) *refMergeWriter {
	w := &refMergeWriter{spans: bufio.NewWriter(spans)}
	if events != nil {
		w.events = bufio.NewWriter(events)
	}
	for i := range lanes {
		w.lanes = append(w.lanes, &refLane{w: w, lane: i})
	}
	return w
}

func (l *refLane) Lifecycle() bool { return l.w.events != nil }

func (l *refLane) Event(e Event) {
	l.key = max(l.key, e.At)
	if l.w.events == nil {
		return
	}
	if len(l.w.lanes) > 1 {
		e.Tenant = l.lane
		if e.Kind == Sample {
			e.Detail = LaneSeriesName(l.lane, e.Detail)
		}
	}
	l.liveEv = append(l.liveEv, refEvent{l.key, e})
	l.sample()
}

func (l *refLane) Arrive() {
	l.inFlight++
	l.sample()
}

func (l *refLane) Span(s *Span) {
	c := *s
	if len(l.w.lanes) > 1 {
		c.Tenant = l.lane
	}
	l.inFlight--
	if !c.Done() {
		l.open = append(l.open, &c)
		return
	}
	l.key = max(l.key, c.Completed)
	l.liveSp = append(l.liveSp, refSpan{l.key, c})
}

func (l *refLane) sample() {
	l.peak = max(l.peak, l.inFlight+len(l.open)+len(l.liveSp)+len(l.liveEv))
}

// refCut moves the leading entries of *live with key <= t onto *cut.
func refCut[T any](live, cut *[]T, t time.Duration, key func(T) time.Duration) {
	n := 0
	for n < len(*live) && key((*live)[n]) <= t {
		n++
	}
	*cut = append(*cut, (*live)[:n]...)
	*live = append((*live)[:0:0], (*live)[n:]...)
}

func (w *refMergeWriter) Cut(t time.Duration) {
	for _, l := range w.lanes {
		if !w.undrained {
			l.cutSp, l.cutEv = nil, nil
		}
		refCut(&l.liveSp, &l.cutSp, t, func(q refSpan) time.Duration { return q.key })
		refCut(&l.liveEv, &l.cutEv, t, func(q refEvent) time.Duration { return q.key })
	}
	w.undrained = true
}

// refMerge calls emit for every queued entry in (key, lane, FIFO) order.
func refMerge(n int, size func(lane int) int, key func(lane, i int) time.Duration, emit func(lane, i int)) {
	cursor := make([]int, n)
	for {
		best := -1
		for i := range n {
			if cursor[i] < size(i) && (best < 0 || key(i, cursor[i]) < key(best, cursor[best])) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		emit(best, cursor[best])
		cursor[best]++
	}
}

func (w *refMergeWriter) Drain() {
	if !w.undrained {
		return
	}
	spans := json.NewEncoder(w.spans)
	refMerge(len(w.lanes),
		func(l int) int { return len(w.lanes[l].cutSp) },
		func(l, i int) time.Duration { return w.lanes[l].cutSp[i].key },
		func(l, i int) {
			if err := spans.Encode(toJSON(&w.lanes[l].cutSp[i].s)); err != nil {
				panic(err)
			}
			w.written++
		})
	if w.events != nil {
		events := json.NewEncoder(w.events)
		refMerge(len(w.lanes),
			func(l int) int { return len(w.lanes[l].cutEv) },
			func(l, i int) time.Duration { return w.lanes[l].cutEv[i].key },
			func(l, i int) {
				if err := events.Encode(refEventJSON(w.lanes[l].cutEv[i].e)); err != nil {
					panic(err)
				}
			})
	}
	w.undrained = false
}

func refEventJSON(e Event) eventJSON {
	return eventJSON{
		AtNs: int64(e.At), Kind: e.Kind.String(), Req: e.Req, Job: e.Job,
		Node: e.Node, Tenant: e.Tenant, Spec: e.Spec, N: e.N,
		Value: e.Value, Detail: e.Detail,
	}
}

func (w *refMergeWriter) FlushThrough(t time.Duration) {
	w.Cut(t)
	w.Drain()
}

func (w *refMergeWriter) Close() {
	w.FlushThrough(1<<63 - 1)
	var open []*Span
	for _, l := range w.lanes {
		open = append(open, l.open...)
	}
	slices.SortFunc(open, ArrivalOrder)
	enc := json.NewEncoder(w.spans)
	for _, s := range open {
		if err := enc.Encode(toJSON(s)); err != nil {
			panic(err)
		}
		w.written++
	}
	w.spans.Flush()
	if w.events != nil {
		w.events.Flush()
	}
}

func (w *refMergeWriter) PeakQueued() int {
	peak := 0
	for _, l := range w.lanes {
		peak = max(peak, l.peak)
	}
	return peak
}

// TestMergeWriterMatchesReference drives MergeWriter and refMergeWriter with
// the same random multi-lane feeds and barrier operations and requires equal
// spans and events bytes, spans written and queue peaks. The feeds put key
// ties across lanes (times on a coarse grid), cut at instants that leave
// later keys queued, hold spans open until Close, fail requests, clone,
// hedge and cancel, change the spec to strings that need escaping, let a
// time regress below a lane's key, and send prefixed Sample events.
func TestMergeWriterMatchesReference(t *testing.T) {
	specs := []string{"g4dn.xlarge", "c5.2xlarge", "a<b>&\"c\"", "bad \xff utf8", "line\u2028sep"}
	modes := []string{"spatial", "queued", ""}
	gauges := []string{"pending_requests", "active_jobs", "cost_usd"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lanes := 1 + rng.Intn(4)
		withEvents := seed%3 != 0
		var gotSp, gotEv, wantSp, wantEv bytes.Buffer
		var gotEvW, wantEvW io.Writer
		if withEvents {
			gotEvW, wantEvW = &gotEv, &wantEv
		}
		got := NewMergeWriter(&gotSp, gotEvW, lanes)
		want := newRefMergeWriter(&wantSp, wantEvW, lanes)

		clock := make([]time.Duration, lanes)
		req := make([]int64, lanes)
		job := make([]int64, lanes)
		for step := 0; step < 60; step++ {
			for lane := range lanes {
				g, r := got.Lane(lane), want.lanes[lane]
				for range rng.Intn(6) {
					clock[lane] += time.Duration(rng.Intn(3)) * time.Millisecond
					at := clock[lane]
					switch op := rng.Intn(10); {
					case op < 6: // a batch job of 1-4 requests
						job[lane]++
						n := 1 + rng.Intn(4)
						sp := new(Span)
						sp.Reset(0, 0)
						sp.Job, sp.Node, sp.BatchSize = job[lane], rng.Intn(3), n
						sp.Spec, sp.Mode = specs[rng.Intn(len(specs))], modes[rng.Intn(len(modes))]
						sp.Dispatched = at + time.Millisecond
						sp.Queued = sp.Dispatched + time.Duration(rng.Intn(2))*time.Millisecond
						sp.ExecStart = sp.Queued + time.Duration(rng.Intn(3))*time.Millisecond
						sp.ExecEnd = sp.ExecStart + time.Duration(1+rng.Intn(5))*time.Millisecond
						sp.Completed = sp.ExecEnd
						switch rng.Intn(8) {
						case 0:
							sp.Failed, sp.Queued, sp.ExecStart = true, Unset, Unset
						case 1:
							sp.Clones, sp.Hedged, sp.Cancelled = 1+rng.Intn(2), rng.Intn(2) == 0, rng.Intn(2)
						case 2:
							sp.Completed = Unset // still open when the run ends
						case 3:
							// Completes before the lane's key: the running max holds.
							sp.Completed = max(0, at-5*time.Millisecond)
						}
						for i := range n {
							sp.Req = req[lane]
							req[lane]++
							sp.Arrived = at - time.Duration(i)*time.Millisecond
							sp.Batched = sp.Arrived
							for _, s := range []SpanSink{g, r} {
								s.Arrive()
								s.Span(sp)
							}
						}
					case op < 8:
						e := Ev(at, Sample)
						e.Detail, e.Value = gauges[rng.Intn(len(gauges))], float64(rng.Intn(100))/4
						g.Event(e)
						r.Event(e)
					default:
						e := Ev(at, []Kind{Dispatched, ContainerBoot, NodeFailed}[rng.Intn(3)])
						e.Req, e.Job, e.Node, e.N = req[lane], job[lane], rng.Intn(3), rng.Intn(5)
						e.Spec, e.Detail = specs[rng.Intn(len(specs))], modes[rng.Intn(len(modes))]
						g.Event(e)
						r.Event(e)
					}
				}
			}
			// A barrier operation at a time some lanes have passed.
			at := clock[rng.Intn(lanes)] - time.Duration(rng.Intn(4))*time.Millisecond
			switch rng.Intn(4) {
			case 0:
				got.FlushThrough(at)
				want.FlushThrough(at)
			case 1:
				got.Cut(at)
				want.Cut(at)
				if rng.Intn(2) == 0 { // a second Cut appends to the first
					got.Cut(at + time.Millisecond)
					want.Cut(at + time.Millisecond)
				}
				got.Drain()
				want.Drain()
			case 2:
				got.Cut(at)
				want.Cut(at) // drained at a later step
			}
		}
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
		want.Close()
		name := fmt.Sprintf("seed %d (%d lanes, events %v)", seed, lanes, withEvents)
		if !bytes.Equal(gotSp.Bytes(), wantSp.Bytes()) {
			t.Fatalf("%s: spans differ from the reference:\n%s\nvs\n%s", name, gotSp.String(), wantSp.String())
		}
		if !bytes.Equal(gotEv.Bytes(), wantEv.Bytes()) {
			t.Fatalf("%s: events differ from the reference:\n%s\nvs\n%s", name, gotEv.String(), wantEv.String())
		}
		if got.SpansWritten() != want.written || got.PeakQueued() != want.PeakQueued() {
			t.Fatalf("%s: written %d, peak %d; reference %d, %d", name,
				got.SpansWritten(), got.PeakQueued(), want.written, want.PeakQueued())
		}
		if wantSp.Len() == 0 || withEvents && wantEv.Len() == 0 {
			t.Fatalf("%s: empty feed", name)
		}
	}
}
