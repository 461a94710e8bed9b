package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// spanJSON is the stable JSONL schema for one span. Times are integer
// nanoseconds of virtual time; -1 marks a stage the request never reached.
type spanJSON struct {
	Req         int64  `json:"req"`
	Tenant      int    `json:"tenant"`
	Node        int    `json:"node"`
	Spec        string `json:"spec"`
	Job         int64  `json:"job"`
	Batch       int    `json:"batch"`
	Mode        string `json:"mode"`
	Failed      bool   `json:"failed"`
	ArrivedNs   int64  `json:"arrived_ns"`
	BatchWaitNs int64  `json:"batch_wait_ns"`
	ColdNs      int64  `json:"cold_ns"`
	QueueNs     int64  `json:"queue_ns"`
	ExecNs      int64  `json:"exec_ns"`
	LatencyNs   int64  `json:"latency_ns"`
	// Redundancy counters are omitted when zero so non-cloning schemes'
	// span files are byte-identical to pre-cloning output.
	Clones    int  `json:"clones,omitempty"`
	Hedged    bool `json:"hedged,omitempty"`
	Cancelled int  `json:"cancelled,omitempty"`
}

func toJSON(s *Span) spanJSON {
	return spanJSON{
		Req: s.Req, Tenant: s.Tenant, Node: s.Node, Spec: s.Spec,
		Job: s.Job, Batch: s.BatchSize, Mode: s.Mode, Failed: s.Failed,
		ArrivedNs:   int64(s.Arrived),
		BatchWaitNs: int64(s.BatchWait()),
		ColdNs:      int64(s.ColdStart()),
		QueueNs:     int64(s.QueueDelay()),
		ExecNs:      int64(s.Exec()),
		LatencyNs:   int64(s.Latency()),
		Clones:      s.Clones,
		Hedged:      s.Hedged,
		Cancelled:   s.Cancelled,
	}
}

// SpanJSON returns the span's stable JSON object — the exact value the
// Recorder and StreamWriter encode per JSONL line — for external encoders
// (the live observability plane's SSE feed marshals it verbatim, so a span
// seen over /events is byte-identical to the exported one).
func SpanJSON(s *Span) any { return toJSON(s) }

// WriteSpansJSONL writes one JSON object per span, in request-arrival
// order. The output is byte-identical across runs of the same seeded
// simulation.
func (r *Recorder) WriteSpansJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var (
		enc spanEncoder
		buf []byte
	)
	for _, s := range r.Spans() {
		buf = enc.appendLine(buf[:0], s, s.Tenant)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpansJSONL parses spans previously written with WriteSpansJSONL.
func ReadSpansJSONL(rd io.Reader) ([]*Span, error) {
	dec := json.NewDecoder(rd)
	var out []*Span
	for {
		var sj spanJSON
		if err := dec.Decode(&sj); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("telemetry: span %d: %w", len(out)+1, err)
		}
		s := new(Span)
		s.Reset(sj.Req, sj.Tenant)
		s.Node, s.Spec, s.Job = sj.Node, sj.Spec, sj.Job
		s.BatchSize, s.Mode, s.Failed = sj.Batch, sj.Mode, sj.Failed
		// Rebuild the lifecycle instants from the component durations.
		s.Arrived = time.Duration(sj.ArrivedNs)
		t := s.Arrived
		if sj.LatencyNs > 0 {
			s.Completed = s.Arrived + time.Duration(sj.LatencyNs)
		}
		if sj.BatchWaitNs >= 0 && sj.LatencyNs > 0 {
			t += time.Duration(sj.BatchWaitNs)
			s.Dispatched = t
			t += time.Duration(sj.ColdNs)
			s.Queued = t
			t += time.Duration(sj.QueueNs)
			s.ExecStart = t
			t += time.Duration(sj.ExecNs)
			s.ExecEnd = t
		}
		s.Clones, s.Hedged, s.Cancelled = sj.Clones, sj.Hedged, sj.Cancelled
		out = append(out, s)
	}
}

// eventJSON is the stable JSONL schema for one raw event. The hot exporters
// encode it via appendEventLine; the struct remains the decode schema and
// the reference for the equivalence test pinning the append encoder to
// encoding/json.
type eventJSON struct {
	AtNs   int64   `json:"at_ns"`
	Kind   string  `json:"kind"`
	Req    int64   `json:"req"`
	Job    int64   `json:"job,omitempty"`
	Node   int     `json:"node"`
	Tenant int     `json:"tenant,omitempty"`
	Spec   string  `json:"spec,omitempty"`
	N      int     `json:"n,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// WriteEventsJSONL writes every recorded event as one JSON object per
// line, in emission order — the raw feed behind the series.
func (r *Recorder) WriteEventsJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, e := range r.events {
		buf = appendEventLine(buf[:0], e)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}
