// The dispatcher half of the serving runtime (Fig. 2's Dispatcher plus the
// Job Distribution logic): every dispatch window, pending requests are split
// between MPS co-location and the time-share lane per the scheme's policy
// and submitted to the serving node(s).

package core

import (
	"time"

	"repro/internal/autoscale"
	"repro/internal/batch"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// --- pooled per-job dispatch state -------------------------------------------

// jobState is the per-dispatch context of one batch job: the device job, the
// requests it carries, and the lifecycle closures. States are recycled
// through the runner's free list when the job completes, and the Done/submit
// closures are bound once per jobState lifetime, so a steady-state dispatch
// cycle — take requests, build job, submit, complete, record — allocates
// nothing.
type jobState struct {
	r          *runner
	t          *tenant
	node       *servingNode
	ln         *lane           // t's lane on node
	reqs       []batch.Request // owned copy; reused across lifetimes
	job        device.Job
	dispatched time.Duration
	cold       time.Duration // container-wait serialized into the request
	mode       device.Mode
	live       bool // dispatched and not yet complete
	doneFn     func(*device.Job)
	submitFn   func()
}

// newJobState returns a recycled jobState or builds one with its closures
// bound.
func (r *runner) newJobState() *jobState {
	if n := len(r.jobPool); n > 0 {
		js := r.jobPool[n-1]
		r.jobPool = r.jobPool[:n-1]
		return js
	}
	js := &jobState{r: r}
	js.doneFn = func(j *device.Job) { js.complete(j) }
	js.submitFn = func() {
		js.cold = js.r.eng.Now() - js.dispatched
		js.node.node.Device.Submit(&js.job)
	}
	r.jobStates = append(r.jobStates, js)
	return js
}

// --- dispatch ----------------------------------------------------------------

func (r *runner) dispatchTick() {
	if r.red != nil {
		r.red.dispatch()
		return
	}
	for _, t := range r.tenants {
		r.dispatch(t)
	}
}

// dispatch serves tenant t's pending requests.
func (r *runner) dispatch(t *tenant) {
	if t.bat.Pending() == 0 {
		return
	}
	if !r.primary().healthy() {
		// No healthy node (a revoked one is draining out and takes no new
		// work): requests wait in the batcher; make sure a replacement is
		// on the way.
		r.ensureFailover()
		return
	}
	// This window's pending requests spread evenly across the healthy nodes
	// (the primary, plus its replicas under scale-out); each node runs its
	// own Eq. (1) split against its own state.
	nodes := r.healthyNodes()
	share := (t.bat.Pending() + len(nodes) - 1) / len(nodes)
	for _, node := range nodes {
		if t.bat.Pending() == 0 {
			break
		}
		r.dispatchOn(t, node, min(share, t.bat.Pending()))
	}
}

// healthyNodes returns the slots' healthy serving nodes in slot order: the
// primary and its healthy replicas, or the healthy clone/hedge pools. The
// returned slice is runner-owned scratch, valid until the next call.
func (r *runner) healthyNodes() []*servingNode {
	nodes := r.nodesScratch[:0]
	for _, s := range r.slots {
		if s.sn.healthy() {
			nodes = append(nodes, s.sn)
		}
	}
	r.nodesScratch = nodes
	return nodes
}

// dispatchOn serves up to limit of tenant t's pending requests on one node.
func (r *runner) dispatchOn(t *tenant, node *servingNode, limit int) {
	n := limit
	if n <= 0 {
		return
	}
	ln := &node.lanes[t.idx]
	st := r.stateOf(t, node)
	st.Pending = n
	bs := ln.entry.PreferredBatch

	y := r.cfg.Scheme.Policy.SplitY(st, n)
	if y < 0 {
		y = 0
	}
	if y > n {
		y = n
	}
	spatialN := n - y
	if !node.node.Spec.IsGPU() {
		// Batched CPU mode: everything executes serially.
		spatialN = 0
		y = n
	}
	// Device memory bounds resident jobs: spatial batches beyond the free
	// slots wait in the batcher (reroutable) rather than piling onto the
	// node. This is a physical limit that applies to every scheme; within
	// it, MPS-only schemes still consolidate enough batches to interfere
	// heavily.
	if node.node.Spec.IsGPU() {
		free := ln.entry.MaxResidentJobs - node.node.Device.ActiveCount() - laneCap
		if free < 0 {
			free = 0
		}
		if max := free * bs; spatialN > max {
			spatialN = max
		}
	}
	// Admit only laneCap time-share jobs onto the device; the remainder of
	// the queued portion waits in the batcher (rerouted on a hardware
	// switch, re-split next window).
	slots := laneCap - ln.queuedOutstanding
	if slots < 0 {
		slots = 0
	}
	if max := slots * bs; y > max {
		y = max
	}
	if r.cfg.UniformBatching {
		// Only full batches leave the batcher, unless the oldest pending
		// request is running out of SLO budget.
		total := spatialN + y
		full := total / bs * bs
		if full < total {
			oldest, ok := t.bat.OldestArrival()
			if !ok || r.eng.Now()-oldest < r.cfg.SLO/4 {
				// Trim the queued portion first, then the spatial one.
				drop := total - full
				if d := min(drop, y); d > 0 {
					y -= d
					drop -= d
				}
				spatialN -= drop
			}
		}
		if spatialN+y == 0 {
			return
		}
	}
	// Reactive scale-up: one container per spatial batch (§IV-C), on top of
	// containers already serving in-flight batches. (Taking requests out of
	// the batcher schedules no events, so sizing the pool before the take is
	// observationally identical to the historical take-then-ensure order.)
	ln.pool.Ensure(ln.pool.Busy() + autoscale.ReactiveContainers(spatialN, bs))

	// Each batch takes its requests straight out of the batcher, in the same
	// arrival-order partition batch.Split produced over a materialized take.
	r.sizesScratch = batch.SplitSizes(r.sizesScratch, spatialN, bs)
	for _, size := range r.sizesScratch {
		r.dispatchJob(t, node, size, device.Spatial)
	}
	r.sizesScratch = batch.SplitSizes(r.sizesScratch, y, bs)
	for _, size := range r.sizesScratch {
		r.dispatchJob(t, node, size, device.Queued)
	}
}

// dispatchJob takes tenant t's next n pending requests as one batch job on
// node.
func (r *runner) dispatchJob(t *tenant, node *servingNode, n int, mode device.Mode) {
	now := r.eng.Now()
	ln := &node.lanes[t.idx]
	js := r.newJobState()
	js.t = t
	js.node = node
	js.ln = ln
	js.mode = mode
	js.dispatched = now
	js.cold = 0
	js.live = true
	js.reqs = t.bat.TakeInto(js.reqs[:0], n)
	reqs := js.reqs

	job := &js.job
	job.Reset()
	job.Batch = len(reqs)
	job.Solo = ln.entry.SoloAt(len(reqs))
	job.FBR = ln.entry.FBR
	job.Compute = ln.entry.ComputeAt(len(reqs))
	job.Mode = mode
	job.Done = js.doneFn
	if r.tel != nil {
		r.jobSeq++
		job.ID = r.jobSeq
		if r.life {
			e := telemetry.Ev(now, telemetry.Dispatched)
			e.Tenant, e.Job, e.Node, e.Spec = t.idx, job.ID, node.node.ID, node.node.Spec.Name
			e.N, e.Detail = len(reqs), mode.String()
			r.emitReqs(e, reqs)
		}
	}

	if mode == device.Spatial {
		ln.pool.AcquireOrWait(js.submitFn)
		return
	}
	ln.queuedOutstanding++
	if ln.laneReady {
		// Time-shared batches reuse the single warm lane container.
		js.submitFn()
		return
	}
	ln.lanePending = append(ln.lanePending, js.submitFn)
	if ln.laneHeld {
		return
	}
	ln.laneHeld = true
	ln.pool.AcquireOrWait(ln.claimFn)
}

// claimed runs when the lane's container claim lands: the lane container is
// serving, and every submission buffered meanwhile goes to the device. The
// buffered batch runs from one of the lane's two pending buffers while the
// other takes the live role, so a submission that re-enters during the loop
// still lands in a live buffer; the drained buffer becomes the spare.
func (ln *lane) claimed() {
	ln.laneReady = true
	pending := ln.lanePending
	ln.lanePending, ln.spare = ln.spare[:0], nil
	for _, f := range pending {
		f()
	}
	clear(pending)
	ln.spare = pending[:0]
}

// complete records the outcomes of a finished (or failed) job's requests,
// hands their spans over and recycles the jobState. By the time the device
// invokes Done the job is out of every device queue, and its submit closure
// has either run or — for jobs failed while waiting on a container — belongs
// to a retired pool, so the state cannot be referenced again and is safe to
// reuse. The lane teardown uses the node captured at dispatch, which may
// differ from the primary after a hardware switch.
func (js *jobState) complete(j *device.Job) {
	r := js.r
	t, ln := js.t, js.ln
	if r.tel != nil {
		kind := telemetry.Completed
		if j.Failed {
			kind = telemetry.Failed
		}
		e := telemetry.Ev(r.eng.Now(), kind)
		e.Tenant, e.Job, e.Node = t.idx, j.ID, js.node.node.ID
		if r.spans != nil {
			sp := &r.span
			sp.Reset(0, t.idx)
			stampJob(sp, js.dispatched, js.node, j, js.mode, j.Finished)
			sp.Completed, sp.Failed = e.At, j.Failed
		}
		r.finishReqs(e, js.reqs)
	}
	r.record(t, js.reqs, js.dispatched, jobRecord(j, js.cold))
	mode := js.mode
	js.live = false
	r.jobPool = append(r.jobPool, js)
	if mode == device.Spatial {
		ln.pool.Release()
		return
	}
	ln.queuedOutstanding--
	if ln.queuedOutstanding == 0 && ln.laneReady {
		ln.pool.Release()
		ln.laneHeld = false
		ln.laneReady = false
	}
}

// jobRecord is the batch-level part of the outcomes a finished job j
// records: its cold wait, device queueing, interference and solo time, and
// whether it failed.
func jobRecord(j *device.Job, cold time.Duration) metrics.Record {
	return metrics.Record{
		ColdStart:    cold,
		QueueDelay:   j.QueueDelay(),
		Interference: j.Interference(),
		MinExec:      j.Solo,
		Failed:       j.Failed,
	}
}
