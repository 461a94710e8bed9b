package telemetry

import "slices"

// Recorder is the in-memory SpanSink: it retains every event in emission
// order and every span the runtime hands over. Spans are exported in
// request-arrival order — (Arrived, Tenant, Req) — and events in emission
// order, so a deterministic simulation yields byte-identical exports. The
// recorder keeps no sampled series: a series set is a sink of its own,
// attached beside the recorder through Combine when an output reads it.
type Recorder struct {
	events []Event
	spans  []*Span
	sorted bool // spans is in arrival order

	nodes     []nodeInfo // node ID -> spec, in first-seen order
	nodeIndex map[int]int
}

type nodeInfo struct {
	id   int
	spec string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		nodeIndex: make(map[int]int),
		sorted:    true,
	}
}

// Event implements Sink.
func (r *Recorder) Event(e Event) {
	r.events = append(r.events, e)
	if e.Node >= 0 && e.Spec != "" {
		if _, ok := r.nodeIndex[e.Node]; !ok {
			r.nodeIndex[e.Node] = len(r.nodes)
			r.nodes = append(r.nodes, nodeInfo{id: e.Node, spec: e.Spec})
		}
	}
}

// Arrive implements SpanSink; the recorder counts nothing.
func (r *Recorder) Arrive() {}

// Span implements SpanSink: it keeps a copy of s.
func (r *Recorder) Span(s *Span) {
	c := *s
	if n := len(r.spans); n > 0 && ArrivalOrder(r.spans[n-1], &c) > 0 {
		r.sorted = false
	}
	r.spans = append(r.spans, &c)
}

// Events returns every recorded event in emission order.
func (r *Recorder) Events() []Event { return r.events }

// Spans returns every span in request-arrival order, including those of
// requests still open when the run ended.
func (r *Recorder) Spans() []*Span {
	if !r.sorted {
		slices.SortStableFunc(r.spans, ArrivalOrder)
		r.sorted = true
	}
	return r.spans
}
