package telemetry

import (
	"cmp"
	"time"
)

// Unset marks a lifecycle timestamp that never happened. All real virtual
// times are >= 0.
const Unset = time.Duration(-1)

// Span is the lifecycle of one request: every timestamp the runtime stamped
// on its way through the system. Timestamps are Unset (-1) for stages the
// request never reached (e.g. a request flushed as failed before dispatch).
type Span struct {
	// Req is the request ID; Tenant the workload index (multi-tenant runs).
	Req    int64
	Tenant int

	// Arrived through Completed are the lifecycle instants.
	Arrived    time.Duration
	Batched    time.Duration
	Dispatched time.Duration
	Queued     time.Duration // submitted to the device (after container wait)
	ExecStart  time.Duration
	ExecEnd    time.Duration
	Completed  time.Duration

	// Job, Node, Spec, BatchSize and Mode identify how the request was
	// served: the batch job it joined, the node and node type that executed
	// it, and the sharing mode ("spatial" or "queued").
	Job       int64
	Node      int
	Spec      string
	BatchSize int
	Mode      string

	// Failed marks requests lost to node failures or the final flush.
	Failed bool

	// Clones counts redundant copies dispatched beyond the primary (clone-to-k
	// or hedged backups); Hedged marks the copy as age-triggered; Cancelled
	// counts copies withdrawn after a sibling finished first. All zero for
	// non-redundant schemes, and omitted from JSON exports when zero so those
	// schemes' span files are byte-identical to pre-cloning output.
	Clones    int
	Hedged    bool
	Cancelled int
}

// Reset clears s to the span of a request that has reached no stage yet:
// every timestamp Unset, no job and no node. It stores field by field: the
// runtime resets a span per job, and a whole-struct literal compiles to a
// block copy of a zeroed temporary.
func (s *Span) Reset(req int64, tenant int) {
	s.Req, s.Tenant = req, tenant
	s.Arrived, s.Batched, s.Dispatched, s.Queued = Unset, Unset, Unset, Unset
	s.ExecStart, s.ExecEnd, s.Completed = Unset, Unset, Unset
	s.Job, s.Node, s.Spec, s.BatchSize, s.Mode = 0, -1, "", 0, ""
	s.Failed = false
	s.Clones, s.Hedged, s.Cancelled = 0, false, 0
}

// Stamp returns at when the stage happened and Unset otherwise.
func Stamp(happened bool, at time.Duration) time.Duration {
	if happened {
		return at
	}
	return Unset
}

// ArrivalOrder orders spans by (Arrived, Tenant, Req): request-arrival
// order, and the order spans still open at the end of a run are handed over
// and exported in.
func ArrivalOrder(a, b *Span) int {
	switch {
	case a.Arrived != b.Arrived:
		return cmp.Compare(a.Arrived, b.Arrived)
	case a.Tenant != b.Tenant:
		return cmp.Compare(a.Tenant, b.Tenant)
	}
	return cmp.Compare(a.Req, b.Req)
}

// gap returns to-from clamped to zero, or zero when either end is unset.
func gap(from, to time.Duration) time.Duration {
	if from < 0 || to < 0 || to < from {
		return 0
	}
	return to - from
}

// BatchWait is the time spent in the batcher before dispatch.
func (s *Span) BatchWait() time.Duration { return gap(s.Arrived, s.Dispatched) }

// ColdStart is the container wait serialized between dispatch and device
// submission.
func (s *Span) ColdStart() time.Duration { return gap(s.Dispatched, s.Queued) }

// QueueDelay is the on-device wait between submission and execution.
func (s *Span) QueueDelay() time.Duration { return gap(s.Queued, s.ExecStart) }

// Exec is the execution time, including co-location interference.
func (s *Span) Exec() time.Duration { return gap(s.ExecStart, s.ExecEnd) }

// Latency is the end-to-end response time; zero while the span is open.
func (s *Span) Latency() time.Duration { return gap(s.Arrived, s.Completed) }

// Done reports whether the request reached a terminal state.
func (s *Span) Done() bool { return s.Completed >= 0 }
