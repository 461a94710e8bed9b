package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// feedLifecycle hands one served request (req 7, job 3 on node 1) to s.
func feedLifecycle(s SpanSink) {
	sp := new(Span)
	sp.Reset(7, 0)
	sp.Arrived, sp.Batched, sp.Dispatched = ms(0), ms(0), ms(10)
	sp.Queued, sp.ExecStart, sp.ExecEnd, sp.Completed = ms(12), ms(15), ms(40), ms(40)
	sp.Job, sp.Node, sp.Spec, sp.BatchSize, sp.Mode = 3, 1, "p3.2xlarge", 4, "spatial"

	d := Ev(ms(10), Dispatched)
	d.Req, d.Job, d.Node, d.Spec, d.N, d.Detail = 7, 3, 1, "p3.2xlarge", 4, "spatial"
	q := Ev(ms(12), Queued)
	q.Job, q.Node = 3, 1
	xs, xe := q, q
	xs.Kind, xs.At = ExecStart, ms(15)
	xe.Kind, xe.At = ExecEnd, ms(40)
	handOver(s, sp, d, q, xs, xe)
}

// The Recorder keeps its own copy of each span it is handed, whole.
func TestRecorderKeepsSpan(t *testing.T) {
	r := NewRecorder()
	feedLifecycle(r)

	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Req != 7 || s.Job != 3 || s.Node != 1 || s.Spec != "p3.2xlarge" ||
		s.BatchSize != 4 || s.Mode != "spatial" || s.Failed {
		t.Fatalf("span identity wrong: %+v", s)
	}
	if !s.Done() {
		t.Fatal("span not done after Completed")
	}
	if s.BatchWait() != ms(10) || s.ColdStart() != ms(2) ||
		s.QueueDelay() != ms(3) || s.Exec() != ms(25) || s.Latency() != ms(40) {
		t.Fatalf("components wrong: batch=%v cold=%v queue=%v exec=%v lat=%v",
			s.BatchWait(), s.ColdStart(), s.QueueDelay(), s.Exec(), s.Latency())
	}
	// The invariant the exports rely on: components telescope to latency.
	if s.BatchWait()+s.ColdStart()+s.QueueDelay()+s.Exec() != s.Latency() {
		t.Fatal("components do not sum to latency")
	}
	// The runtime reuses the span it hands over; the kept copy must not move.
	var reused Span
	reused.Reset(8, 0)
	reused.Arrived = ms(50)
	r.Span(&reused)
	reused.Req = 9
	if r.Spans()[1].Req != 8 || s.Req != 7 {
		t.Fatal("recorder kept a reference to a handed-over span")
	}
}

func TestRecorderFailedFlushSpan(t *testing.T) {
	r := NewRecorder()
	sp := new(Span)
	sp.Reset(1, 0)
	sp.Arrived, sp.Batched = ms(5), ms(5)
	sp.Completed, sp.Failed = ms(500), true
	handOver(r, sp)

	s := r.Spans()[0]
	if !s.Failed || !s.Done() {
		t.Fatalf("flushed request not failed+done: %+v", s)
	}
	if s.Latency() != ms(495) {
		t.Fatalf("latency = %v, want 495ms", s.Latency())
	}
	// Never dispatched: every component is zero.
	if s.BatchWait() != 0 || s.ColdStart() != 0 || s.QueueDelay() != 0 || s.Exec() != 0 {
		t.Fatalf("undispatched request has nonzero components: %+v", s)
	}
}

// Spans come back in (Arrived, Tenant, Req) order whatever order they
// finished in, and the same request ID in two tenants stays two spans.
func TestRecorderTenantsKeepSeparateSpans(t *testing.T) {
	r := NewRecorder()
	late, _ := served(0, 1, 2, ms(1))
	early, _ := served(0, 0, 1, ms(0))
	handOver(r, late)
	handOver(r, early)
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("same req ID in two tenants collapsed: %d spans", len(spans))
	}
	if spans[0].Tenant != 0 || spans[1].Tenant != 1 {
		t.Fatalf("spans not in arrival order: tenants %d, %d", spans[0].Tenant, spans[1].Tenant)
	}
}

func TestCombine(t *testing.T) {
	if Combine() != nil || Combine(nil, nil) != nil {
		t.Fatal("Combine of no sinks must be nil (fast path)")
	}
	rec := NewRecorder()
	if Combine(nil, rec) != Sink(rec) {
		t.Fatal("Combine with one sink must return it unchanged")
	}

	// Two sinks each see every event, in order, and every span.
	other := NewRecorder()
	fan, ok := Combine(rec, nil, other).(SpanSink)
	if !ok {
		t.Fatal("Combine of span sinks is not a SpanSink")
	}
	feedLifecycle(fan)
	sw := Ev(ms(50), HWSwitch)
	sw.Node, sw.Spec = 2, "p2.xlarge"
	fan.Event(sw)
	for _, r := range []*Recorder{rec, other} {
		if len(r.Spans()) != 1 || len(r.Events()) != 8 {
			t.Fatalf("recorder saw %d spans / %d events", len(r.Spans()), len(r.Events()))
		}
		if last := r.Events()[len(r.Events())-1]; last != sw {
			t.Fatalf("last event %+v, want the switch", last)
		}
	}

	// Lifecycle events are wanted when any member wants them; a fan-out of
	// span-only writers declines them, and one without span sinks takes no
	// spans.
	spanOnly := Combine(NewStreamWriter(io.Discard, nil), NewMergeWriter(io.Discard, nil, 1).Lane(0))
	if WantsLifecycle(spanOnly) {
		t.Error("span-only fan-out wants lifecycle events")
	}
	if !WantsLifecycle(Combine(spanOnly, NewRecorder())) {
		t.Error("fan-out with a Recorder declines lifecycle events")
	}
	if _, ok := Combine(countSink{}, countSink{}).(SpanSink); ok {
		t.Error("fan-out without span sinks takes spans")
	}
	if !WantsLifecycle(countSink{}) || WantsLifecycle(nil) {
		t.Error("a plain sink must want every event, a nil one none")
	}
}

// countSink is a plain Sink that declares nothing.
type countSink struct{}

func (countSink) Event(Event) {}

func TestSeriesCSVRoundTrip(t *testing.T) {
	ss := NewSeriesSet()
	ss.Observe("a", ms(0), 1)
	ss.Observe("b", ms(0), 0.25)
	ss.Observe("a", ms(1000), 2.5)
	// b misses the 1s tick; a misses the 2s tick — cells stay empty.
	ss.Observe("b", ms(2000), 3)

	var buf bytes.Buffer
	if err := ss.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSeriesCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(back.Names(), ","), "a,b"; got != want {
		t.Fatalf("names %q, want %q", got, want)
	}
	a, b := back.Get("a"), back.Get("b")
	if len(a.Points) != 2 || len(b.Points) != 2 {
		t.Fatalf("points a=%d b=%d, want 2 and 2", len(a.Points), len(b.Points))
	}
	if a.Points[1].At != time.Second || a.Points[1].Value != 2.5 {
		t.Fatalf("a[1] = %+v", a.Points[1])
	}
	if b.Last().At != 2*time.Second || b.Last().Value != 3 {
		t.Fatalf("b last = %+v", b.Last())
	}

	// Corruption is a labelled error, not a zero.
	bad := strings.Replace(buf.String(), "2.5", "2.5oops", 1)
	if _, err := ReadSeriesCSV(strings.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "column a") {
		t.Fatalf("corrupt cell error = %v, want one naming column a", err)
	}
	if _, err := ReadSeriesCSV(strings.NewReader("x,y\n1,2\n")); err == nil {
		t.Fatal("missing t_s header accepted")
	}
}

func TestSpansJSONLRoundTrip(t *testing.T) {
	rec := NewRecorder()
	feedLifecycle(rec)
	var buf bytes.Buffer
	if err := rec.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpansJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("got %d spans", len(back))
	}
	s, o := back[0], rec.Spans()[0]
	if s.Req != o.Req || s.Latency() != o.Latency() || s.BatchWait() != o.BatchWait() ||
		s.ColdStart() != o.ColdStart() || s.QueueDelay() != o.QueueDelay() ||
		s.Exec() != o.Exec() || s.Mode != o.Mode || s.BatchSize != o.BatchSize {
		t.Fatalf("round trip changed span:\n got %+v\nwant %+v", s, o)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	rec := NewRecorder()
	na := Ev(0, NodeAcquired)
	na.Node, na.Spec = 1, "p3.2xlarge"
	rec.Event(na)
	feedLifecycle(rec)
	smp := Ev(ms(20), Sample)
	smp.Detail, smp.Value = "pending_requests", 4
	rec.Event(smp)

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	phases := map[string]int{}
	var reqOpen, reqClose int
	for _, e := range doc.TraceEvents {
		ph := e["ph"].(string)
		phases[ph]++
		if e["name"] == "request" {
			switch ph {
			case "b":
				reqOpen++
			case "e":
				reqClose++
			}
		}
	}
	// Thread metadata, async slices (balanced), a counter sample.
	if phases["M"] < 2 {
		t.Fatalf("missing metadata events: %v", phases)
	}
	if phases["b"] == 0 || phases["b"] != phases["e"] {
		t.Fatalf("unbalanced async events: %v", phases)
	}
	if phases["C"] != 1 {
		t.Fatalf("want 1 counter event: %v", phases)
	}
	if reqOpen != 1 || reqClose != 1 {
		t.Fatalf("request track open/close = %d/%d", reqOpen, reqClose)
	}
}

func TestEventStringAndKindNames(t *testing.T) {
	e := Ev(ms(1500), Dispatched)
	e.Req, e.Job, e.Node, e.Spec, e.N, e.Detail = 9, 2, 0, "M60", 3, "queued"
	s := e.String()
	for _, want := range []string{"dispatched", "req=9", "job=2", "node=0", "spec=M60", "n=3", "queued"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if Kind(200).String() == "" {
		t.Fatal("out-of-range kind must still format")
	}
	for k := Arrived; k <= Sample; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

// Reset stores Span's fields one by one, so a field added to Span must be
// added there too: every field of a fully dirty span must come back to the
// fresh-span values.
func TestSpanResetClearsEveryField(t *testing.T) {
	var dirty Span
	v := reflect.ValueOf(&dirty).Elem()
	for i := range v.NumField() {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.String:
			f.SetString("x")
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("field %s: kind %s not covered", v.Type().Field(i).Name, f.Kind())
		}
	}
	dirty.Reset(3, 2)
	want := Span{
		Req: 3, Tenant: 2, Node: -1,
		Arrived: Unset, Batched: Unset, Dispatched: Unset, Queued: Unset,
		ExecStart: Unset, ExecEnd: Unset, Completed: Unset,
	}
	if dirty != want {
		t.Fatalf("Reset left %+v, want %+v", dirty, want)
	}
}
