// Package invariant is the simulation stack's runtime law checker: a
// pluggable observer threaded through sim, core, device, container and
// cluster that audits, while the run happens, the conservation laws a
// correct discrete-event serving simulator must obey — and records every
// breach instead of silently producing a plausible-looking Result.
//
// The laws come from three sources: the span of each request, which the
// runtime hands over as the request finishes (Arrive, Span — the Checker is
// a telemetry.SpanSink); direct hooks inside a layer (Tick, DeviceStart,
// DeviceAdvance, DeviceFinish, DeviceJob, CopyLaunched, CopyCancelled,
// CloneResolved, Pool, Billing, CheckResult); and the control events on the
// telemetry bus (container and node events). By family:
//
//   - request-conservation. Spans: every arrival ends in exactly one span,
//     so at the end of a run no span is still open, arrived == completed +
//     failed == Result.Requests and Result.FailedRequests == failed spans; a
//     span never cancels more copies than it cloned. Device job hook: a job
//     is queued once, starts once and only after being queued, and ends
//     once. Copy hooks: a cancel names a launched copy that has not ended,
//     and a clone set resolves with no copy unresolved.
//   - device-capacity. Device hooks: resident jobs never exceed the
//     device-memory pool bound (maxResident), jobs never start, progress or
//     finish on a Failed() device nor start on a node the bus reported
//     failed, per-job FBRs are positive and finite, and a finishing job has
//     no solo-equivalent work left.
//   - container-lifecycle. Pool hook: pool counters obey cold-start → warm
//     → keep-alive → evicted accounting — idle+busy+starting+booting ==
//     boots + warmAdded − terminated, cumulative counters never decrease,
//     request-blocking cold starts never exceed total boots, and waiting
//     claims never exceed the containers that could absorb them. Bus: every
//     container event counts at least one container.
//   - node-lifecycle. Bus: nodes walk requested → acquired → (failed ↔
//     recovered)* → released; no duplicate failure, no recovery without a
//     failure, no release without an acquisition. Spot revocation is
//     terminal: a node is revoked at most once, never while released, and
//     never fails or recovers afterwards. CheckResult: no more failures
//     than were injected.
//   - billing. Billing hook against the bus: total cost is monotone in
//     virtual time and always equals the sum over nodes of cost-rate ×
//     held-time re-derived from the node events (double-billing and
//     under-billing both trip it). Spot nodes carry their discounted rate
//     on the events, so the reconciliation stays exact below the catalog
//     price.
//   - time-monotonic. Tick, bus and spans: the engine's virtual clock and
//     every bus event's timestamp are non-decreasing, and no event or
//     finished span is behind the engine clock.
//   - span-telescope. Spans: the stamps a span sets never run backwards,
//     and a completed span without clones has a full dispatch/queued/exec
//     record ending at its completion, so batch_wait + cold_start +
//     queue_delay + exec == latency. Copy hooks: a clone set's scoring copy
//     has a full record ending at the resolution instant, or before it for
//     a synchronized set (the gap is the synchronization stall).
//
// The Checker declines per-request lifecycle events
// (telemetry.WantsLifecycle) and ignores any that other sinks make flow, so
// a run reaches the same verdict with or without them. Every hook site
// nil-checks its checker, so a disabled checker costs one branch — the same
// zero-cost-when-disabled contract as the telemetry layer. A Checker
// watches exactly one run and is not safe for concurrent use; give each run
// its own.
package invariant

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/hardware"
	"repro/internal/telemetry"
)

// Law families. Every Violation carries one, so tests can assert that a
// deliberately broken law — and only that law — fires.
const (
	LawConservation = "request-conservation"
	LawCapacity     = "device-capacity"
	LawLifecycle    = "container-lifecycle"
	LawNode         = "node-lifecycle"
	LawBilling      = "billing"
	LawTime         = "time-monotonic"
	LawTelescope    = "span-telescope"
)

// recordLimit caps stored violations; the total count keeps increasing so a
// pathological run cannot exhaust memory through the checker itself.
const recordLimit = 100

// billingTol absorbs float summation noise when comparing re-derived cost
// against the cluster's books (both are sums of rate × seconds).
const billingTol = 1e-9

// finishTol is the residual solo-equivalent work (seconds) a finishing job
// may carry from duration truncation when its finish event was armed.
const finishTol = 1e-6

// Violation is one observed breach of a law.
type Violation struct {
	// At is the virtual time of the breach.
	At time.Duration
	// Law is the family constant (LawConservation, ...).
	Law string
	// Detail says what was observed and what the law requires.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%v [%s] %s", v.At, v.Law, v.Detail)
}

// jobState is what the checker knows of one device job: in flight on a
// device, or a clone copy until its set resolves.
type jobState struct {
	endAt     time.Duration
	copy      bool // launched by a clone set; kept until the set resolves
	queued    bool
	started   bool
	ended     bool // finished, failed or (copies) cancelled
	cancelled bool
}

type nodeState struct {
	spec       string
	rate       float64 // dollars per second; <0 when the spec is unknown
	billStart  time.Duration
	releasedAt time.Duration
	requested  bool
	acquired   bool
	released   bool
	failed     bool
	revoked    bool
	everBilled bool
}

type poolKey struct {
	node   int
	tenant int
}

// PoolCounts is a container pool's counter snapshot, passed by the pool on
// every mutation.
type PoolCounts struct {
	// Idle, Busy, Starting, Booting and Waiting are the instantaneous
	// populations (warm idle, serving, background pre-warms, synchronous
	// boots, queued claims).
	Idle, Busy, Starting, Booting, Waiting int
	// Boots, SyncColds, WarmAdded and Terminated are cumulative counters.
	Boots, SyncColds, WarmAdded, Terminated uint64
}

// Checker observes one simulation run and records law violations. The zero
// value is not usable; construct with New.
type Checker struct {
	recorded []Violation
	total    int

	lastTickAt  time.Duration
	lastEventAt time.Duration

	// request conservation: arrivals, and the spans handed over by outcome.
	arrived, completed, failed, open int

	// jobs holds the device jobs in flight and the clone copies of
	// unresolved sets, by job ID.
	jobs map[int64]jobState

	// node lifecycle, indexed by node ID (acquisition order).
	nodes        []*nodeState
	nodeFailures int

	lastCost    float64
	lastBillAt  time.Duration
	billUnknown bool // a node's spec was not in the catalog; skip reconciliation

	pools map[poolKey]PoolCounts
}

// New returns an empty checker ready to observe one run.
func New() *Checker {
	return &Checker{jobs: make(map[int64]jobState), pools: make(map[poolKey]PoolCounts)}
}

// AsSink returns the checker as a telemetry.Sink (a SpanSink that declines
// lifecycle events), or a nil interface for a nil checker — safe to pass
// straight to telemetry.Combine.
func (c *Checker) AsSink() telemetry.Sink {
	if c == nil {
		return nil
	}
	return c
}

// violate records one breach (bounded; the total keeps counting).
func (c *Checker) violate(at time.Duration, law, format string, args ...any) {
	c.total++
	if len(c.recorded) < recordLimit {
		c.recorded = append(c.recorded, Violation{At: at, Law: law, Detail: fmt.Sprintf(format, args...)})
	}
}

// Violations returns the recorded breaches (at most recordLimit of them).
func (c *Checker) Violations() []Violation { return c.recorded }

// Total returns how many breaches were observed, including any beyond the
// recording cap.
func (c *Checker) Total() int { return c.total }

// Clean reports whether no law was violated.
func (c *Checker) Clean() bool { return c.total == 0 }

// Err returns nil for a clean run, or an error summarizing the breaches.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: %d violation(s)", c.total)
	show := min(len(c.recorded), 5)
	for _, v := range c.recorded[:show] {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	if c.total > show {
		fmt.Fprintf(&b, "\n  ... and %d more", c.total-show)
	}
	return fmt.Errorf("%s", b.String())
}

// --- engine hook ---------------------------------------------------------------

// Tick observes every fired engine event's virtual time (wire it with
// sim.Engine.SetOnFire). Time must never run backwards.
func (c *Checker) Tick(at time.Duration) {
	if at < c.lastTickAt {
		c.violate(at, LawTime, "engine clock moved backwards: %v after %v", at, c.lastTickAt)
	}
	c.lastTickAt = at
}

// --- span-derived laws ---------------------------------------------------------

// Lifecycle declines per-request lifecycle events (telemetry.WantsLifecycle):
// the checker reads each request's span instead.
func (c *Checker) Lifecycle() bool { return false }

// Arrive implements telemetry.SpanSink: one more request entered the run.
func (c *Checker) Arrive() { c.arrived++ }

// spanStages names a span's stamps in lifecycle order.
var spanStages = [...]string{"arrived", "batched", "dispatched", "queued", "exec_start", "exec_end", "completed"}

// Span implements telemetry.SpanSink: it counts the request by outcome and
// checks its stamps.
func (c *Checker) Span(s *telemetry.Span) {
	stamps := [...]time.Duration{s.Arrived, s.Batched, s.Dispatched, s.Queued, s.ExecStart, s.ExecEnd, s.Completed}
	last := -1
	for i, at := range stamps {
		if at == telemetry.Unset {
			continue
		}
		if last >= 0 && at < stamps[last] {
			c.violate(at, LawTelescope, "request %d span runs backwards: %s %v before %s %v",
				s.Req, spanStages[i], at, spanStages[last], stamps[last])
			break
		}
		last = i
	}
	if s.Cancelled < 0 || s.Cancelled > s.Clones || (s.Clones > 0 && s.Dispatched < 0) {
		c.violate(c.lastTickAt, LawConservation, "request %d counts %d clones and %d cancels, dispatched at %v",
			s.Req, s.Clones, s.Cancelled, s.Dispatched)
	}
	switch {
	case !s.Done():
		c.open++
		return
	case s.Failed:
		c.failed++
	default:
		c.completed++
		// With clones the span carries copy 0's stamps; CloneResolved checks
		// the scoring copy.
		if s.Clones == 0 && (s.Dispatched < 0 || s.Queued < 0 || s.ExecStart < 0 || s.ExecEnd != s.Completed) {
			c.violate(s.Completed, LawTelescope,
				"request %d completed at %v without a full record ending there: dispatched %v queued %v exec %v..%v",
				s.Req, s.Completed, s.Dispatched, s.Queued, s.ExecStart, s.ExecEnd)
		}
	}
	if s.Completed < c.lastTickAt {
		c.violate(s.Completed, LawTime, "request %d finished at %v behind the engine clock %v", s.Req, s.Completed, c.lastTickAt)
	}
}

// --- bus-derived laws -----------------------------------------------------------

// Event consumes one telemetry event (Checker implements telemetry.Sink).
// Lifecycle events are ignored: spans and the job and copy hooks carry
// those laws whether or not another sink makes the events flow.
func (c *Checker) Event(e telemetry.Event) {
	if e.Kind.Lifecycle() {
		return
	}
	if e.At < c.lastEventAt {
		c.violate(e.At, LawTime, "%s event at %v after an event at %v", e.Kind, e.At, c.lastEventAt)
	} else {
		c.lastEventAt = e.At
	}
	if e.At < c.lastTickAt {
		c.violate(e.At, LawTime, "%s event at %v behind the engine clock %v", e.Kind, e.At, c.lastTickAt)
	}

	switch e.Kind {
	case telemetry.ContainerWait, telemetry.ContainerBoot,
		telemetry.ContainerPrewarm, telemetry.ContainerReaped:
		if e.N < 1 {
			c.violate(e.At, LawLifecycle, "%s event with count %d", e.Kind, e.N)
		}
	case telemetry.NodeRequested, telemetry.NodeAcquired, telemetry.NodeReleased,
		telemetry.NodeFailed, telemetry.NodeRecovered, telemetry.NodeRevoked:
		c.nodeEvent(e)
	}
}

// node returns the tracked state for a node ID, nil when unknown.
func (c *Checker) node(id int) *nodeState {
	if id < 0 || id >= len(c.nodes) {
		return nil
	}
	return c.nodes[id]
}

// ensureNode grows the ID-indexed node table.
func (c *Checker) ensureNode(id int) *nodeState {
	for len(c.nodes) <= id {
		c.nodes = append(c.nodes, nil)
	}
	if c.nodes[id] == nil {
		c.nodes[id] = &nodeState{rate: -1}
	}
	return c.nodes[id]
}

func (c *Checker) nodeEvent(e telemetry.Event) {
	if e.Node < 0 {
		c.violate(e.At, LawNode, "%s event without a node ID", e.Kind)
		return
	}
	switch e.Kind {
	case telemetry.NodeRequested:
		if n := c.node(e.Node); n != nil {
			c.violate(e.At, LawNode, "node %d requested but already tracked (%s)", e.Node, n.spec)
			return
		}
		n := c.ensureNode(e.Node)
		n.requested = true
		c.startBilling(n, e)

	case telemetry.NodeAcquired:
		n := c.node(e.Node)
		if n == nil {
			// Synchronous acquisition: billing starts here.
			n = c.ensureNode(e.Node)
		} else if n.acquired || n.released {
			c.violate(e.At, LawNode, "node %d acquired twice (or after release)", e.Node)
			return
		}
		n.acquired = true
		c.startBilling(n, e)

	case telemetry.NodeFailed:
		n := c.node(e.Node)
		if n == nil {
			c.violate(e.At, LawNode, "node %d failed before being acquired", e.Node)
			return
		}
		if !n.acquired {
			c.violate(e.At, LawNode, "node %d failed while still in VM launch", e.Node)
		}
		if n.released {
			c.violate(e.At, LawNode, "node %d failed after release", e.Node)
		}
		if n.revoked {
			c.violate(e.At, LawNode, "node %d failed after revocation", e.Node)
		}
		if n.failed {
			c.violate(e.At, LawNode, "node %d failed while already failed", e.Node)
		}
		n.failed = true
		c.nodeFailures++

	case telemetry.NodeRecovered:
		n := c.node(e.Node)
		if n == nil || !n.failed {
			c.violate(e.At, LawNode, "node %d recovered without a failure", e.Node)
			return
		}
		if n.revoked {
			// A revocation is permanent: recovering a revoked node would
			// resurrect (and, while held, re-bill) a node the fleet let go.
			c.violate(e.At, LawNode, "node %d recovered after revocation", e.Node)
		}
		n.failed = false

	case telemetry.NodeRevoked:
		n := c.node(e.Node)
		if n == nil || !n.everBilled {
			c.violate(e.At, LawNode, "node %d revoked without being acquired", e.Node)
			return
		}
		if n.released {
			c.violate(e.At, LawNode, "node %d revoked after release", e.Node)
			return
		}
		if n.revoked {
			c.violate(e.At, LawNode, "node %d revoked twice", e.Node)
			return
		}
		n.revoked = true

	case telemetry.NodeReleased:
		n := c.node(e.Node)
		if n == nil || !n.everBilled {
			c.violate(e.At, LawNode, "node %d released without being acquired", e.Node)
			return
		}
		if n.released {
			c.violate(e.At, LawNode, "node %d released twice", e.Node)
			return
		}
		n.released = true
		n.releasedAt = e.At
	}
}

// startBilling stamps when a node began accruing cost and resolves its rate.
func (c *Checker) startBilling(n *nodeState, e telemetry.Event) {
	if n.everBilled {
		return
	}
	n.everBilled = true
	n.billStart = e.At
	n.spec = e.Spec
	if e.Value > 0 {
		// Spot nodes bill below the catalog rate; the lifecycle event carries
		// the effective rate so the ledger still reconciles exactly.
		n.rate = e.Value
	} else if spec, ok := hardware.ByName(e.Spec); ok {
		n.rate = spec.CostPerSecond()
	} else {
		c.billUnknown = true
	}
}

// --- direct layer hooks --------------------------------------------------------

// DeviceStart observes a job entering a device's active set. active counts
// the set including the new job; maxResident is the device-memory pool bound
// (0 = unbounded); failed is the device's failure flag; fbr the job's
// fractional bandwidth requirement.
func (c *Checker) DeviceStart(at time.Duration, node, active, maxResident int, failed bool, fbr float64) {
	if failed {
		c.violate(at, LawCapacity, "job started on failed device (node %d)", node)
	}
	if maxResident > 0 && active > maxResident {
		c.violate(at, LawCapacity,
			"node %d has %d resident jobs, exceeding the device-memory pool bound %d",
			node, active, maxResident)
	}
	// FBR 0 is legal (CPU nodes and negligible-bandwidth jobs); negative,
	// NaN or infinite is not. Values above 1 legally oversubscribe (that is
	// what the contention penalty models); the hard pool limit is the
	// resident-job bound above.
	if !(fbr >= 0) || math.IsInf(fbr, 0) {
		c.violate(at, LawCapacity, "node %d started a job with FBR %v", node, fbr)
	}
}

// DeviceAdvance observes simulated work being applied on a device. Progress
// on a failed device breaks the failure model.
func (c *Checker) DeviceAdvance(at time.Duration, node, active int, failed bool) {
	if failed && active > 0 {
		c.violate(at, LawCapacity,
			"node %d applied progress to %d jobs while failed", node, active)
	}
}

// DeviceFinish observes a job completing on a device. remainingSec is the
// job's leftover solo-equivalent work, which must be (numerically) zero.
func (c *Checker) DeviceFinish(at time.Duration, node int, remainingSec float64, failed bool) {
	if failed {
		c.violate(at, LawCapacity, "job finished normally on failed device (node %d)", node)
	}
	if remainingSec > finishTol || remainingSec < -finishTol {
		c.violate(at, LawCapacity,
			"node %d finished a job with %.3gs of work remaining", node, remainingSec)
	}
}

// DeviceJob observes device job job reaching a stage on node: telemetry.Queued
// when a healthy device admits it, ExecStart, and ExecEnd when it finishes
// or fails. admitted reports whether the device admitted the job; one
// failed on submission ends without ever being queued.
func (c *Checker) DeviceJob(at time.Duration, kind telemetry.Kind, job int64, node int, admitted bool) {
	if job <= 0 {
		c.violate(at, LawConservation, "%s of a job without an ID", kind)
		return
	}
	j, known := c.jobs[job]
	switch kind {
	case telemetry.Queued:
		if j.queued {
			c.violate(at, LawConservation, "job %d queued twice", job)
		}
		j.queued = true
	case telemetry.ExecStart:
		if !j.queued {
			c.violate(at, LawConservation, "job %d started executing without being queued", job)
		}
		if j.started {
			c.violate(at, LawConservation, "job %d started executing twice", job)
		}
		if n := c.node(node); n != nil && n.failed {
			c.violate(at, LawCapacity, "job %d started executing on failed node %d", job, node)
		}
		j.started = true
	case telemetry.ExecEnd:
		if j.ended || (!known && admitted) {
			// A plain job leaves the table at its end, so a second end
			// finds no record of the job the device admitted.
			c.violate(at, LawConservation, "job %d ended twice (or was never queued)", job)
		}
		if !j.copy {
			delete(c.jobs, job)
			return
		}
		j.ended, j.endAt = true, at
	}
	c.jobs[job] = j
}

// CopyLaunched observes a clone set launching one of its copies as device
// job job.
func (c *Checker) CopyLaunched(at time.Duration, job int64) {
	if _, ok := c.jobs[job]; ok || job <= 0 {
		c.violate(at, LawConservation, "copy launched as job %d: no ID, or one already in use", job)
		return
	}
	c.jobs[job] = jobState{copy: true}
}

// CopyCancelled observes a clone set withdrawing copy job after a sibling
// won the race: the cancel is the copy's end.
func (c *Checker) CopyCancelled(at time.Duration, job int64) {
	j, ok := c.jobs[job]
	switch {
	case !ok || !j.copy:
		c.violate(at, LawConservation, "cancel names job %d, not a launched copy", job)
		return
	case j.ended:
		c.violate(at, LawConservation, "copy job %d cancelled after it ended", job)
		return
	}
	j.ended, j.cancelled, j.endAt = true, true, at
	c.jobs[job] = j
}

// CloneResolved observes a clone set resolving at at, on the scoring copy
// or, when scoring is 0, failed because every copy died. copies lists the
// set's launched copies; a synchronized set may complete after its scoring
// copy ended. The copies leave the table.
func (c *Checker) CloneResolved(at time.Duration, scoring int64, synchronized bool, copies []int64) {
	if scoring != 0 {
		j, ok := c.jobs[scoring]
		switch {
		case !ok || !j.copy || !slices.Contains(copies, scoring):
			c.violate(at, LawTelescope, "set resolved on job %d, not one of its copies", scoring)
		case !j.queued || !j.started || !j.ended || j.cancelled:
			c.violate(at, LawTelescope, "scoring copy job %d has no full queued/exec record", scoring)
		case j.endAt > at || (j.endAt != at && !synchronized):
			c.violate(at, LawTelescope, "scoring copy job %d ended at %v, its set resolved at %v", scoring, j.endAt, at)
		}
	}
	for _, id := range copies {
		j, ok := c.jobs[id]
		if !ok || !j.copy {
			c.violate(at, LawConservation, "set resolved with job %d, never launched as a copy", id)
		} else if !j.ended {
			c.violate(at, LawConservation, "set resolved with copy job %d unresolved", id)
		}
		delete(c.jobs, id)
	}
}

// Pool observes a container pool's counters after a mutation, checking the
// lifecycle algebra: live containers == boots + warmAdded − terminated,
// cumulative counters monotone, blocking cold starts within total boots, and
// waiting claims within the containers able to absorb them.
func (c *Checker) Pool(at time.Duration, node, tenant int, pc PoolCounts) {
	if pc.Idle < 0 || pc.Busy < 0 || pc.Starting < 0 || pc.Booting < 0 || pc.Waiting < 0 {
		c.violate(at, LawLifecycle,
			"node %d pool has a negative population: idle=%d busy=%d starting=%d booting=%d waiting=%d",
			node, pc.Idle, pc.Busy, pc.Starting, pc.Booting, pc.Waiting)
		return
	}
	k := poolKey{node: node, tenant: tenant}
	if prev, ok := c.pools[k]; ok {
		if pc.Boots < prev.Boots || pc.SyncColds < prev.SyncColds ||
			pc.WarmAdded < prev.WarmAdded || pc.Terminated < prev.Terminated {
			c.violate(at, LawLifecycle,
				"node %d pool counters went backwards: boots %d→%d sync %d→%d warm %d→%d terminated %d→%d",
				node, prev.Boots, pc.Boots, prev.SyncColds, pc.SyncColds,
				prev.WarmAdded, pc.WarmAdded, prev.Terminated, pc.Terminated)
		}
	}
	if pc.SyncColds > pc.Boots {
		c.violate(at, LawLifecycle,
			"node %d pool has %d blocking cold starts but only %d boots", node, pc.SyncColds, pc.Boots)
	}
	live := int64(pc.Idle + pc.Busy + pc.Starting + pc.Booting)
	want := int64(pc.Boots) + int64(pc.WarmAdded) - int64(pc.Terminated)
	if live != want {
		c.violate(at, LawLifecycle,
			"node %d pool conservation broken: idle+busy+starting+booting = %d, boots+warmAdded-terminated = %d",
			node, live, want)
	}
	if pc.Waiting > pc.Starting+pc.Busy {
		c.violate(at, LawLifecycle,
			"node %d pool has %d waiting claims but only %d containers to absorb them",
			node, pc.Waiting, pc.Starting+pc.Busy)
	}
	c.pools[k] = pc
}

// Billing observes the cluster's books after any acquire/release/failure
// transition: cost must be monotone and must equal the cost re-derived from
// the node lifecycle events.
func (c *Checker) Billing(at time.Duration, totalCost float64) {
	if at < c.lastBillAt {
		c.violate(at, LawTime, "billing observed at %v after %v", at, c.lastBillAt)
	}
	if totalCost < c.lastCost-billingTol {
		c.violate(at, LawBilling, "total cost decreased: %.9f after %.9f", totalCost, c.lastCost)
	}
	c.lastBillAt = at
	c.lastCost = totalCost
	if c.billUnknown {
		return
	}
	expected := 0.0
	for _, n := range c.nodes {
		if n == nil || !n.everBilled {
			continue
		}
		end := at
		if n.released {
			end = n.releasedAt
		}
		expected += n.rate * (end - n.billStart).Seconds()
	}
	diff := totalCost - expected
	if diff > billingTol || diff < -billingTol {
		c.violate(at, LawBilling,
			"books disagree with node lifecycle: cluster reports $%.9f, events imply $%.9f",
			totalCost, expected)
	}
}

// --- end-of-run reconciliation -------------------------------------------------

// CheckResult reconciles the run's Result counters against the spans and
// bus events observed: call it once, after the run, with Result.Requests,
// Result.FailedRequests and Result.FailuresInjected (use the summed
// per-workload counts for multi-tenant runs).
func (c *Checker) CheckResult(at time.Duration, requests, failedRequests, failuresInjected int) {
	if c.open != 0 {
		c.violate(at, LawConservation,
			"%d request(s) still open at the end of the run", c.open)
	}
	if c.arrived != c.completed+c.failed {
		c.violate(at, LawConservation,
			"arrived %d != completed %d + failed %d", c.arrived, c.completed, c.failed)
	}
	if c.arrived != requests {
		c.violate(at, LawConservation,
			"Result.Requests = %d but %d requests arrived", requests, c.arrived)
	}
	if c.failed != failedRequests {
		c.violate(at, LawConservation,
			"Result.FailedRequests = %d but %d failed spans observed", failedRequests, c.failed)
	}
	if c.nodeFailures > failuresInjected {
		c.violate(at, LawNode,
			"%d node failures observed but only %d injected", c.nodeFailures, failuresInjected)
	}
}
