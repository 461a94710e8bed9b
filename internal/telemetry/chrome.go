package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// chromeEvent is one entry of the Chrome trace_event format
// (chrome://tracing, Perfetto, speedscope all load it). Timestamps are
// microseconds of virtual time.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChromeTrace exports the run in Chrome trace_event JSON:
//
//   - one async track per request (nestable b/e slices for the span and
//     its batch-wait / cold-start / queue / exec components),
//   - instant events for node, container and hardware-selection activity,
//   - counter tracks for every sampled series.
//
// Load the file in chrome://tracing or https://ui.perfetto.dev.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(e chromeEvent) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	// Process and per-node thread names.
	if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "paldia"}}); err != nil {
		return err
	}
	for _, n := range r.nodes {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: n.id + 1,
			Args: map[string]any{"name": fmt.Sprintf("node %d (%s)", n.id, n.spec)}}); err != nil {
			return err
		}
	}

	// Per-request async tracks with component sub-slices.
	for _, s := range r.Spans() {
		if s.Arrived < 0 {
			continue
		}
		id := fmt.Sprintf("req-%d-%d", s.Tenant, s.Req)
		tid := s.Node + 1
		if tid < 1 {
			tid = 0
		}
		end := s.Completed
		if end < 0 {
			end = s.Arrived // open span: zero-width marker
		}
		open := chromeEvent{Name: "request", Cat: "req", Ph: "b",
			Ts: usOf(s.Arrived), Pid: 1, Tid: tid, ID: id,
			Args: map[string]any{"req": s.Req, "batch": s.BatchSize,
				"mode": s.Mode, "spec": s.Spec, "failed": s.Failed}}
		if err := emit(open); err != nil {
			return err
		}
		type stage struct {
			name     string
			from, to time.Duration
		}
		for _, st := range []stage{
			{"batch_wait", s.Arrived, s.Dispatched},
			{"cold_start", s.Dispatched, s.Queued},
			{"queue", s.Queued, s.ExecStart},
			{"exec", s.ExecStart, s.ExecEnd},
		} {
			if st.from < 0 || st.to < 0 || st.to < st.from {
				continue
			}
			if err := emit(chromeEvent{Name: st.name, Cat: "req", Ph: "b",
				Ts: usOf(st.from), Pid: 1, Tid: tid, ID: id}); err != nil {
				return err
			}
			if err := emit(chromeEvent{Name: st.name, Cat: "req", Ph: "e",
				Ts: usOf(st.to), Pid: 1, Tid: tid, ID: id}); err != nil {
				return err
			}
		}
		if err := emit(chromeEvent{Name: "request", Cat: "req", Ph: "e",
			Ts: usOf(end), Pid: 1, Tid: tid, ID: id}); err != nil {
			return err
		}
	}

	// Instant events for the control plane, counters for the series.
	for _, e := range r.events {
		switch e.Kind {
		case Sample:
			if err := emit(chromeEvent{Name: e.Detail, Ph: "C", Ts: usOf(e.At),
				Pid: 1, Tid: 0, Args: map[string]any{"value": e.Value}}); err != nil {
				return err
			}
		case ContainerWait, ContainerBoot, ContainerPrewarm, ContainerReaped,
			NodeRequested, NodeAcquired, NodeReleased, NodeFailed, NodeRecovered,
			HWSwitch, ScaleOut, ScaleIn, AutoscalePrewarm:
			tid := e.Node + 1
			if tid < 1 {
				tid = 0
			}
			args := map[string]any{}
			if e.Spec != "" {
				args["spec"] = e.Spec
			}
			if e.N > 0 {
				args["n"] = e.N
			}
			if e.Detail != "" {
				args["detail"] = e.Detail
			}
			if err := emit(chromeEvent{Name: e.Kind.String(), Cat: "runtime",
				Ph: "i", Scope: "g", Ts: usOf(e.At), Pid: 1, Tid: tid,
				Args: args}); err != nil {
				return err
			}
		}
	}

	if _, err := fmt.Fprint(bw, "]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
