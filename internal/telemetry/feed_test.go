package telemetry

import "time"

// arrive feeds s one request's arrival the way the serving runtime does:
// the Arrived and Batched events when s wants lifecycle events, then Arrive.
func arrive(s SpanSink, sp *Span) {
	if WantsLifecycle(s) {
		e := Ev(sp.Arrived, Arrived)
		e.Req, e.Tenant = sp.Req, sp.Tenant
		s.Event(e)
		e.Kind = Batched
		s.Event(e)
	}
	s.Arrive()
}

// finish feeds s the rest of the request: its mid-life lifecycle events and,
// for a finished span, the terminal Completed or Failed event — all only
// when s wants them — then the span itself.
func finish(s SpanSink, sp *Span, mid ...Event) {
	if WantsLifecycle(s) {
		for _, e := range mid {
			s.Event(e)
		}
		if sp.Done() {
			kind := Completed
			if sp.Failed {
				kind = Failed
			}
			e := Ev(sp.Completed, kind)
			e.Req, e.Tenant, e.Job = sp.Req, sp.Tenant, sp.Job
			s.Event(e)
		}
	}
	s.Span(sp)
}

// handOver feeds s one whole request: arrive, then finish.
func handOver(s SpanSink, sp *Span, mid ...Event) {
	arrive(s, sp)
	finish(s, sp, mid...)
}

// served returns the span of request req of tenant, arrived at base and
// served as job on node 1 of a g4dn.xlarge: dispatched 5 ms, queued 6 ms,
// started 8 ms and ended 20 ms after arrival, completed at 21 ms; and the
// job's lifecycle events between arrival and completion.
func served(req int64, tenant int, job int64, base time.Duration) (*Span, []Event) {
	at := func(n int) time.Duration { return base + time.Duration(n)*time.Millisecond }
	sp := new(Span)
	sp.Reset(req, tenant)
	sp.Arrived, sp.Batched, sp.Dispatched = at(0), at(0), at(5)
	sp.Queued, sp.ExecStart, sp.ExecEnd, sp.Completed = at(6), at(8), at(20), at(21)
	sp.Job, sp.Node, sp.Spec, sp.BatchSize, sp.Mode = job, 1, "g4dn.xlarge", 1, "queued"

	d := Ev(at(5), Dispatched)
	d.Req, d.Tenant, d.Job, d.Node, d.Spec, d.N, d.Detail = req, tenant, job, 1, "g4dn.xlarge", 1, "queued"
	mid := []Event{d}
	for i, k := range []Kind{Queued, ExecStart, ExecEnd} {
		e := Ev(at([]int{6, 8, 20}[i]), k)
		e.Job, e.Node, e.Spec, e.N, e.Detail = job, 1, "g4dn.xlarge", 1, "queued"
		mid = append(mid, e)
	}
	return sp, mid
}
