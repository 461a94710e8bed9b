// Package telemetry is the structured observability layer of the serving
// runtime: a typed event bus (Sink), per-request spans the runtime builds as
// each request finishes (SpanSink), virtual-time series sampled on a fixed
// cadence (SeriesSet, a sink of Sample events), and exporters for JSONL, Chrome trace_event (chrome://tracing /
// Perfetto), CSV and SVG timelines.
//
// Everything is deterministic: the same seeded simulation produces
// byte-identical exports, and a nil Sink disables the whole layer at the
// cost of one branch per emission site. Per-request lifecycle events are
// opt-in (see WantsLifecycle): a run whose sinks only take spans pays for
// neither the events nor their assembly. Reads used by the sampler are
// side-effect-free so an instrumented run takes the exact same trajectory
// as an uninstrumented one.
package telemetry

import (
	"fmt"
	"strings"
	"time"
)

// Kind is the type of a telemetry event.
type Kind uint8

// Request lifecycle kinds follow a request through the runtime; the
// remaining kinds cover containers, nodes, hardware selection and sampling.
const (
	// Arrived: a request reached the gateway (Req set).
	Arrived Kind = iota
	// Batched: the request entered its model's batcher (Req set).
	Batched
	// Dispatched: the request left the batcher inside a job (Req, Job,
	// Node, Spec set; N is the job's batch size; Detail is the mode).
	Dispatched
	// Queued: a job was submitted to the device after any container wait
	// (Job, Node set; N batch size; Detail mode).
	Queued
	// ExecStart: a job began executing on the device (Job, Node set).
	ExecStart
	// ExecEnd: a job finished executing or failed (Job, Node set).
	ExecEnd
	// Completed: the request's response left the system (Req set).
	Completed
	// Failed: the request was lost to a node failure or final flush (Req
	// set).
	Failed

	// ContainerWait: a claim is waiting for a container already on the way.
	ContainerWait
	// ContainerBoot: a synchronous (request-blocking) cold boot started.
	ContainerBoot
	// ContainerPrewarm: N background container boots were scheduled.
	ContainerPrewarm
	// ContainerReaped: N idle containers passed keep-alive and terminated.
	ContainerReaped

	// NodeRequested: a VM launch was issued (billing starts).
	NodeRequested
	// NodeAcquired: the VM is up and its device exists.
	NodeAcquired
	// NodeReleased: the node was relinquished (billing stops).
	NodeReleased
	// NodeFailed: the node failed; in-flight work was lost.
	NodeFailed
	// NodeRecovered: the node came back.
	NodeRecovered

	// HWSwitch: the primary serving node changed (Node, Spec set).
	HWSwitch
	// ScaleOut: a replica of the current node type began serving.
	ScaleOut
	// ScaleIn: a replica was retired.
	ScaleIn
	// AutoscalePrewarm: the predictive autoscaler grew a pool to N.
	AutoscalePrewarm

	// Sample: one time-series observation (Detail is the series name,
	// Value the observation).
	Sample

	// Cloned: a redundant copy of the request was dispatched (Req, Job,
	// Node, Spec set; N batch size; Detail "clone" or "hedge"). The copy's
	// job carries its own Job ID distinct from the primary's.
	Cloned
	// CloneCancelled: a redundant copy was withdrawn because a sibling
	// finished first (Req, Job set; Node when the copy had reached a
	// device). The cancel instant is the copy's execution end.
	CloneCancelled
	// NodeRevoked: a spot node received its revocation notice (Node, Spec
	// set). The node drains and is released when the notice expires.
	NodeRevoked
)

var kindNames = [...]string{
	Arrived:          "arrived",
	Batched:          "batched",
	Dispatched:       "dispatched",
	Queued:           "queued",
	ExecStart:        "exec_start",
	ExecEnd:          "exec_end",
	Completed:        "completed",
	Failed:           "failed",
	ContainerWait:    "container-wait",
	ContainerBoot:    "container-boot",
	ContainerPrewarm: "container-prewarm",
	ContainerReaped:  "container-reaped",
	NodeRequested:    "node-requested",
	NodeAcquired:     "node-acquired",
	NodeReleased:     "node-released",
	NodeFailed:       "node-failed",
	NodeRecovered:    "node-recovered",
	HWSwitch:         "swap",
	ScaleOut:         "scale-out",
	ScaleIn:          "scale-in",
	AutoscalePrewarm: "autoscale-prewarm",
	Sample:           "sample",
	Cloned:           "cloned",
	CloneCancelled:   "clone-cancelled",
	NodeRevoked:      "node-revoked",
}

// Lifecycle reports whether k is a per-request lifecycle kind: Arrived
// through Failed, Cloned and CloneCancelled. The runtime emits these only
// when an attached sink asks for them (WantsLifecycle); every other kind —
// containers, nodes, hardware selection, samples — always flows.
func (k Kind) Lifecycle() bool {
	return k <= Failed || k == Cloned || k == CloneCancelled
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Event is one typed occurrence at a point in virtual time. Identifier
// fields use -1 (Req, Job) or the zero value (Node defaults to -1 only via
// Ev) when not applicable.
type Event struct {
	// At is the virtual time of the occurrence.
	At time.Duration
	// Kind is the event type.
	Kind Kind
	// Req identifies the request (batcher-assigned ID); -1 when the event
	// is not request-scoped.
	Req int64
	// Job identifies the batch job; 0 when the event is not job-scoped
	// (job IDs are assigned from 1).
	Job int64
	// Node is the cluster node ID; -1 when not node-scoped.
	Node int
	// Tenant is the workload index in multi-tenant runs (0 otherwise).
	Tenant int
	// Spec is the node type's instance name, when known.
	Spec string
	// N is a count whose meaning depends on Kind (batch size, containers).
	N int
	// Value is the observation of a Sample event.
	Value float64
	// Detail carries free-form context (mode names, series names).
	Detail string
}

// Ev returns an event with identifier fields cleared to "not applicable".
func Ev(at time.Duration, kind Kind) Event {
	return Event{At: at, Kind: kind, Req: -1, Node: -1}
}

// String renders the event compactly for debugging output.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v %s", e.At, e.Kind)
	if e.Req >= 0 {
		fmt.Fprintf(&b, " req=%d", e.Req)
	}
	if e.Job > 0 {
		fmt.Fprintf(&b, " job=%d", e.Job)
	}
	if e.Node >= 0 {
		fmt.Fprintf(&b, " node=%d", e.Node)
	}
	if e.Tenant > 0 {
		fmt.Fprintf(&b, " tenant=%d", e.Tenant)
	}
	if e.Spec != "" {
		fmt.Fprintf(&b, " spec=%s", e.Spec)
	}
	if e.N > 0 {
		fmt.Fprintf(&b, " n=%d", e.N)
	}
	if e.Kind == Sample {
		fmt.Fprintf(&b, " %s=%g", e.Detail, e.Value)
	} else if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	return b.String()
}

// Sink consumes telemetry events. Implementations must not retain the
// event beyond the call (it may be reused). Emission sites hold a Sink and
// guard every emission with a nil check, so disabled telemetry costs one
// branch and zero allocations.
type Sink interface {
	Event(Event)
}

// SpanSink is a Sink that also takes per-request spans straight from the
// serving runtime, which fills each span in where it already holds the
// timestamps — no event-to-span assembly. The runtime calls Arrive once per
// request entering it, Span once per request as it completes or fails, and,
// when the run ends, Span once more for every request still open (Done
// false), in (Arrived, Tenant, Req) order. A request's dispatch, device
// submission and redundant copies reach a sink only as lifecycle events.
//
// Span must not retain s: the runtime reuses it. Sinks that keep spans copy
// them.
type SpanSink interface {
	Sink
	Arrive()
	Span(s *Span)
}

// WantsLifecycle reports whether s consumes per-request lifecycle events
// (see Kind.Lifecycle). A sink declines them by implementing
// `Lifecycle() bool` and returning false — the span-only writers do, unless
// they also write the raw event feed, and so do the invariant checker,
// which reads spans, and a SeriesSet, which reads samples. Any other sink is assumed to want every event, so a
// plain Sink (a counter, a test double, the Recorder, the obs hub) sees the
// same stream it always has.
func WantsLifecycle(s Sink) bool {
	if s == nil {
		return false
	}
	if l, ok := s.(interface{ Lifecycle() bool }); ok {
		return l.Lifecycle()
	}
	return true
}

type multiSink []Sink

func (m multiSink) Event(e Event) {
	for _, s := range m {
		s.Event(e)
	}
}

// Lifecycle implements the WantsLifecycle opt-out: a fan-out wants lifecycle
// events when any member does.
func (m multiSink) Lifecycle() bool {
	for _, s := range m {
		if WantsLifecycle(s) {
			return true
		}
	}
	return false
}

// spanFan is a multiSink with at least one SpanSink member: events reach
// every member, spans every SpanSink member.
type spanFan struct {
	multiSink
	spans []SpanSink
}

func (f spanFan) Arrive() {
	for _, s := range f.spans {
		s.Arrive()
	}
}

func (f spanFan) Span(sp *Span) {
	for _, s := range f.spans {
		s.Span(sp)
	}
}

// Combine fans events out to every non-nil sink, and spans to every one that
// is a SpanSink. It returns nil when none remain, preserving the nil-sink
// fast path, and the sink itself when only one remains.
func Combine(sinks ...Sink) Sink {
	var keep multiSink
	var spans []SpanSink
	for _, s := range sinks {
		if s == nil {
			continue
		}
		keep = append(keep, s)
		if ss, ok := s.(SpanSink); ok {
			spans = append(spans, ss)
		}
	}
	switch {
	case len(keep) == 0:
		return nil
	case len(keep) == 1:
		return keep[0]
	case len(spans) > 0:
		return spanFan{multiSink: keep, spans: spans}
	}
	return keep
}
