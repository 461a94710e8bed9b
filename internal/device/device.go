// Package device simulates the compute devices of a worker node.
//
// A GPU device supports the two sharing mechanisms the paper builds on:
//
//   - Spatial sharing (NVIDIA MPS): jobs submitted in Spatial mode join a
//     processor-sharing pool immediately and run concurrently. Co-located
//     jobs contend for memory bandwidth, caches and capacity; each job's
//     progress rate is scaled by profile.Slowdown of the pool's aggregate
//     Fractional Bandwidth Requirement, so over-colocation produces exactly
//     the job-interference overhead the paper attributes to MPS-only
//     schemes.
//
//   - Time sharing: jobs submitted in Queued mode enter a FIFO lane that
//     runs at most one job at a time (concurrently with the spatial pool,
//     as the default CUDA time-slicing coexists with MPS clients). A lone
//     time-shared job runs at its profiled solo speed; a long lane produces
//     exactly the queueing-delay overhead of time-shared-only schemes.
//
// A CPU device is the degenerate case: the ML framework's batched CPU mode
// executes one batch at a time, so every submission lands in the FIFO lane.
//
// The device also supports failure injection (for the paper's node-failure
// study) and a host-contention factor (for the mixed-workload study).
package device

import (
	"time"

	"repro/internal/hardware"
	"repro/internal/invariant"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Mode selects the GPU sharing mechanism for a job.
type Mode int

const (
	// Spatial co-locates the job on the device via MPS.
	Spatial Mode = iota
	// Queued time-shares the device: the job waits in a FIFO lane.
	Queued
)

func (m Mode) String() string {
	if m == Spatial {
		return "spatial"
	}
	return "queued"
}

// Job is one batch execution on a device.
type Job struct {
	// ID identifies the job in telemetry spans; 0 means untracked (job IDs
	// are assigned from 1 by the dispatcher when telemetry or an invariant
	// checker is attached; a checker reports an untracked job as a breach).
	ID int64
	// Batch is the number of requests in the job.
	Batch int
	// Solo is the profiled isolated execution latency of this batch on this
	// device.
	Solo time.Duration
	// FBR is the job's fractional bandwidth requirement on this device.
	FBR float64
	// Compute is the fraction of the device's compute units the job
	// occupies while executing (profile.Entry.ComputeAt). Zero means
	// negligible — co-location then contends only for bandwidth.
	Compute float64
	// Mode selects spatial or time sharing.
	Mode Mode
	// Done is invoked exactly once when the job finishes or fails.
	Done func(j *Job)

	// Submitted, Started and Finished are stamped by the device.
	Submitted time.Duration
	Started   time.Duration
	Finished  time.Duration
	// Admitted and Ran record the stages the job reached: Admitted is set
	// when a healthy device accepted it (a submission to a failed device
	// fails on arrival), Ran when it began executing. A job failed before
	// it ran still gets Started stamped at the failure.
	Admitted, Ran bool
	// Failed is set instead of a normal completion when the node fails
	// while the job is in flight or waiting.
	Failed bool

	remainingSec float64 // solo-equivalent work left, in seconds
	running      bool
	finishEv     sim.Timer
	dev          *Device // executing device, set at start; finishFn reads it
	finishFn     func()  // bound once per Job lifetime; survives Reset
}

// Reset clears the job for reuse from a pool, as if freshly allocated. The
// bound finish closure (and its device pointer slot) survives, so a pooled
// job's whole lifecycle — including every finish-event re-arm — allocates
// nothing after its first use.
func (j *Job) Reset() {
	j.ID = 0
	j.Batch = 0
	j.Solo = 0
	j.FBR = 0
	j.Compute = 0
	j.Mode = Spatial
	j.Done = nil
	j.Submitted = 0
	j.Started = 0
	j.Finished = 0
	j.Admitted, j.Ran = false, false
	j.Failed = false
	j.remainingSec = 0
	j.running = false
	j.finishEv = sim.Timer{}
}

// QueueDelay is the time the job spent waiting before execution began.
func (j *Job) QueueDelay() time.Duration {
	if j.Started < j.Submitted {
		return 0
	}
	return j.Started - j.Submitted
}

// Interference is the execution-time inflation the job suffered from
// co-located jobs: actual execution minus the profiled solo latency.
func (j *Job) Interference() time.Duration {
	d := j.Finished - j.Started - j.Solo
	if d < 0 {
		return 0
	}
	return d
}

// Device simulates one node's compute device.
type Device struct {
	eng  *sim.Engine
	spec hardware.Spec

	active      []*Job // running jobs (spatial pool + at most one lane job)
	laneRunning *Job   // the Queued-mode job currently running, if any
	lane        []*Job // waiting Queued-mode jobs, FIFO
	pendingSpat []*Job // Spatial jobs waiting for a memory slot, FIFO

	// maxResident caps concurrently resident jobs (device memory); 0 means
	// unlimited.
	maxResident int

	// hostFactor inflates all execution (>=1); models co-resident "regular"
	// serverless workloads stealing host CPU (Table III).
	hostFactor float64

	// sink receives job lifecycle events (nil when no sink wants them);
	// check audits every job transition and the device-capacity laws
	// (resident bound, no progress while failed); nodeID labels both. watch
	// is set when either is, so a device with neither costs one branch per
	// job transition.
	sink   telemetry.Sink
	check  *invariant.Checker
	watch  bool
	nodeID int

	failed bool

	lastAdvance time.Duration
	busy        time.Duration // accumulated non-idle time
	created     time.Duration
	jobsDone    uint64
	workDone    time.Duration // solo-equivalent work completed
}

// New creates a device for the node type. For GPU nodes maxResident bounds
// spatial co-location (pass profile.Entry.MaxResidentJobs or 0 for unlimited).
func New(eng *sim.Engine, spec hardware.Spec, maxResident int) *Device {
	return &Device{
		eng:         eng,
		spec:        spec,
		maxResident: maxResident,
		hostFactor:  1,
		lastAdvance: eng.Now(),
		created:     eng.Now(),
	}
}

// Spec returns the node type the device belongs to.
func (d *Device) Spec() hardware.Spec { return d.spec }

// SetTelemetry wires the device's job lifecycle events to a sink, labelled
// with the owning node's ID. The device emits nothing unless the sink wants
// lifecycle events (telemetry.WantsLifecycle).
func (d *Device) SetTelemetry(s telemetry.Sink, nodeID int) {
	d.sink = nil
	if telemetry.WantsLifecycle(s) {
		d.sink = s
	}
	d.nodeID = nodeID
	d.watch = d.sink != nil || d.check != nil
}

// SetCheck wires the device to an invariant checker, labelled with the
// owning node's ID.
func (d *Device) SetCheck(c *invariant.Checker, nodeID int) {
	d.check = c
	d.nodeID = nodeID
	d.watch = d.sink != nil || d.check != nil
}

// report hands one job transition to the checker and emits it as a job
// lifecycle event; call sites guard watch.
func (d *Device) report(kind telemetry.Kind, j *Job) {
	if d.check != nil {
		d.check.DeviceJob(d.eng.Now(), kind, j.ID, d.nodeID, j.Admitted)
	}
	if d.sink == nil {
		return
	}
	e := telemetry.Ev(d.eng.Now(), kind)
	e.Job = j.ID
	e.Node = d.nodeID
	e.Spec = d.spec.Name
	e.N = j.Batch
	e.Detail = j.Mode.String()
	d.sink.Event(e)
}

// SetHostFactor sets the host-contention execution inflation (>= 1).
func (d *Device) SetHostFactor(f float64) {
	if f < 1 {
		f = 1
	}
	d.advance()
	d.hostFactor = f
	d.reschedule()
}

// ActiveCount returns the number of jobs currently executing.
func (d *Device) ActiveCount() int { return len(d.active) }

// ActiveDemand returns the aggregate FBR of executing jobs.
func (d *Device) ActiveDemand() float64 {
	d.advance()
	total := 0.0
	for _, j := range d.active {
		total += j.FBR
	}
	return total
}

// ActiveCompute returns the aggregate compute occupancy of executing jobs.
func (d *Device) ActiveCompute() float64 {
	d.advance()
	total := 0.0
	for _, j := range d.active {
		total += j.Compute
	}
	return total
}

// LaneLength returns the number of Queued-mode jobs waiting (excluding the
// one running).
func (d *Device) LaneLength() int { return len(d.lane) }

// BacklogSolo returns the total solo-equivalent work on the device: the
// remaining work of executing jobs plus the solo time of everything waiting.
// Schedulers use it to approximate T_max on CPU nodes.
func (d *Device) BacklogSolo() time.Duration {
	d.advance()
	var total time.Duration
	for _, j := range d.active {
		total += time.Duration(j.remainingSec * float64(time.Second))
	}
	for _, j := range d.lane {
		total += j.Solo
	}
	for _, j := range d.pendingSpat {
		total += j.Solo
	}
	return total
}

// LaneBacklogSolo returns the solo-equivalent work ahead of a newly queued
// job: the remaining work of the running lane job plus the solo time of
// everything waiting in the lane.
func (d *Device) LaneBacklogSolo() time.Duration {
	d.advance()
	var total time.Duration
	if d.laneRunning != nil {
		total += time.Duration(d.laneRunning.remainingSec * float64(time.Second))
	}
	for _, j := range d.lane {
		total += j.Solo
	}
	return total
}

// JobsDone returns the number of successfully completed jobs.
func (d *Device) JobsDone() uint64 { return d.jobsDone }

// Utilization returns the fraction of time since creation the device was
// non-idle.
func (d *Device) Utilization() float64 {
	d.advance()
	total := d.eng.Now() - d.created
	if total <= 0 {
		return 0
	}
	return float64(d.busy) / float64(total)
}

// Failed reports whether the device is currently failed.
func (d *Device) Failed() bool { return d.failed }

// Submit hands a job to the device. On CPU nodes every job is time-shared
// regardless of the requested mode. The job's Done callback fires when it
// completes (or immediately, with Failed set, if the device is failed).
func (d *Device) Submit(j *Job) {
	j.Submitted = d.eng.Now()
	if j.Solo <= 0 {
		panic("device: job with non-positive Solo")
	}
	if d.failed {
		d.failJob(j)
		return
	}
	d.advance()
	j.Admitted = true
	if !d.spec.IsGPU() {
		j.Mode = Queued
	}
	if d.watch {
		d.report(telemetry.Queued, j)
	}
	switch j.Mode {
	case Spatial:
		if d.hasRoom() {
			d.start(j)
		} else {
			d.pendingSpat = append(d.pendingSpat, j)
		}
	case Queued:
		d.lane = append(d.lane, j)
		d.admitLane()
	}
	d.reschedule()
}

// Fail marks the device failed: all running and waiting jobs complete
// immediately with Failed set, and subsequent submissions fail on arrival
// until Recover is called.
func (d *Device) Fail() {
	if d.failed {
		return
	}
	d.advance()
	d.failed = true
	jobs := append([]*Job{}, d.active...)
	jobs = append(jobs, d.lane...)
	jobs = append(jobs, d.pendingSpat...)
	d.active, d.lane, d.pendingSpat = nil, nil, nil
	d.laneRunning = nil
	for _, j := range jobs {
		j.finishEv.Cancel()
		j.finishEv = sim.Timer{}
		d.failJob(j)
	}
}

// Cancel withdraws a job from the device without invoking Done. The clone
// dispatcher calls it when a sibling copy of the same request set finished
// first: the job disappears from wherever it sits — executing in the spatial
// pool, running or waiting in the time-share lane, or waiting for a memory
// slot — its capacity is released, and successors are admitted exactly as if
// it had finished. Returns false when the job is not on this device (it
// already finished, failed, or was never submitted here).
func (d *Device) Cancel(j *Job) bool {
	d.advance()
	if j.running {
		for _, a := range d.active {
			if a != j {
				continue
			}
			j.finishEv.Cancel()
			j.finishEv = sim.Timer{}
			j.running = false
			d.removeActive(j)
			if d.laneRunning == j {
				d.laneRunning = nil
			}
			for len(d.pendingSpat) > 0 && d.hasRoom() {
				next := d.pendingSpat[0]
				copy(d.pendingSpat, d.pendingSpat[1:])
				d.pendingSpat = d.pendingSpat[:len(d.pendingSpat)-1]
				d.start(next)
			}
			d.admitLane()
			d.reschedule()
			return true
		}
		return false
	}
	for i, w := range d.lane {
		if w == j {
			d.lane = append(d.lane[:i], d.lane[i+1:]...)
			return true
		}
	}
	for i, w := range d.pendingSpat {
		if w == j {
			d.pendingSpat = append(d.pendingSpat[:i], d.pendingSpat[i+1:]...)
			return true
		}
	}
	return false
}

// Recover clears the failure state.
func (d *Device) Recover() {
	d.advance()
	d.failed = false
}

func (d *Device) failJob(j *Job) {
	j.Failed = true
	j.Finished = d.eng.Now()
	if j.Started == 0 && !j.running {
		j.Started = d.eng.Now()
	}
	if d.watch {
		d.report(telemetry.ExecEnd, j)
	}
	if j.Done != nil {
		j.Done(j)
	}
}

func (d *Device) hasRoom() bool {
	return d.maxResident <= 0 || len(d.active) < d.maxResident
}

// admitLane starts the next lane job if the lane is free.
func (d *Device) admitLane() {
	if d.laneRunning != nil || len(d.lane) == 0 {
		return
	}
	if !d.hasRoom() {
		return
	}
	j := d.lane[0]
	copy(d.lane, d.lane[1:])
	d.lane = d.lane[:len(d.lane)-1]
	d.laneRunning = j
	d.start(j)
}

// start moves a job into the active set.
func (d *Device) start(j *Job) {
	j.Started = d.eng.Now()
	j.running, j.Ran = true, true
	j.remainingSec = j.Solo.Seconds()
	j.dev = d
	if j.finishFn == nil {
		// Bound once per Job lifetime: the closure captures only the job and
		// reads the device through it, so a pooled job restarted on another
		// device reuses the same closure.
		job := j
		job.finishFn = func() { job.dev.finish(job) }
	}
	d.active = append(d.active, j)
	if d.check != nil {
		d.check.DeviceStart(d.eng.Now(), d.nodeID, len(d.active), d.maxResident, d.failed, j.FBR)
	}
	if d.watch {
		d.report(telemetry.ExecStart, j)
	}
}

// poolDemand sums the active pool's bandwidth and compute occupancy. The
// per-job rate depends on the pool only through these aggregates, so callers
// that recompute every active job's rate (advance, reschedule, SampleStats)
// compute them once instead of once per job.
func (d *Device) poolDemand() (bw, compute float64) {
	for _, a := range d.active {
		bw += a.FBR
		compute += a.Compute
	}
	return bw, compute
}

// rateWith returns the progress rate (solo-seconds per second) of job j
// given the precomputed pool aggregates: the binding bottleneck is either
// the aggregate compute occupancy (co-located saturating kernels split the
// device proportionally) or the bandwidth contention penalty, inflated by
// any host contention.
func (d *Device) rateWith(j *Job, bw, compute float64) float64 {
	slow := profile.Slowdown(bw, j.FBR)
	if compute > 1 && compute > slow {
		slow = compute
	}
	slow *= profile.ClientOverhead(len(d.active))
	return 1 / (slow * d.hostFactor)
}

// rate is the single-job convenience form of rateWith.
func (d *Device) rate(j *Job) float64 {
	bw, compute := d.poolDemand()
	return d.rateWith(j, bw, compute)
}

// advance applies progress to all active jobs up to the current instant.
func (d *Device) advance() {
	now := d.eng.Now()
	dt := (now - d.lastAdvance).Seconds()
	if dt <= 0 {
		d.lastAdvance = now
		return
	}
	if d.check != nil {
		d.check.DeviceAdvance(now, d.nodeID, len(d.active), d.failed)
	}
	if len(d.active) > 0 {
		d.busy += now - d.lastAdvance
	}
	bw, compute := d.poolDemand()
	for _, j := range d.active {
		done := dt * d.rateWith(j, bw, compute)
		j.remainingSec -= done
		if j.remainingSec < 0 {
			j.remainingSec = 0
		}
		d.workDone += time.Duration(done * float64(time.Second))
	}
	d.lastAdvance = now
}

// reschedule recomputes every active job's projected finish and re-arms the
// finish events. Called after any membership or rate change.
func (d *Device) reschedule() {
	bw, compute := d.poolDemand()
	for _, j := range d.active {
		j.finishEv.Cancel()
		r := d.rateWith(j, bw, compute)
		delay := time.Duration(j.remainingSec / r * float64(time.Second))
		j.finishEv = d.eng.Schedule(delay, j.finishFn)
	}
}

// finish completes a job, admits successors, and recomputes the pool.
func (d *Device) finish(j *Job) {
	d.advance()
	if d.check != nil {
		d.check.DeviceFinish(d.eng.Now(), d.nodeID, j.remainingSec, d.failed)
	}
	j.finishEv = sim.Timer{}
	j.running = false
	j.Finished = d.eng.Now()
	d.removeActive(j)
	if d.laneRunning == j {
		d.laneRunning = nil
	}
	d.jobsDone++

	// Admit pending spatial jobs freed by the memory slot, then the lane.
	for len(d.pendingSpat) > 0 && d.hasRoom() {
		next := d.pendingSpat[0]
		copy(d.pendingSpat, d.pendingSpat[1:])
		d.pendingSpat = d.pendingSpat[:len(d.pendingSpat)-1]
		d.start(next)
	}
	d.admitLane()
	d.reschedule()

	if d.watch {
		d.report(telemetry.ExecEnd, j)
	}
	if j.Done != nil {
		j.Done(j)
	}
}

func (d *Device) removeActive(j *Job) {
	for i, a := range d.active {
		if a == j {
			d.active = append(d.active[:i], d.active[i+1:]...)
			return
		}
	}
}

// Stats is a read-only snapshot of the device for telemetry sampling.
type Stats struct {
	// ActiveJobs, LaneQueued and PendingSpatial count executing jobs and
	// the two waiting queues.
	ActiveJobs, LaneQueued, PendingSpatial int
	// ActiveDemand and ActiveCompute aggregate FBR and compute occupancy
	// over executing jobs.
	ActiveDemand, ActiveCompute float64
	// BacklogSolo and LaneBacklogSolo are the solo-equivalent work totals
	// (see BacklogSolo / LaneBacklogSolo).
	BacklogSolo, LaneBacklogSolo time.Duration
	// Failed mirrors the failure flag.
	Failed bool
}

// SampleStats computes Stats without mutating the device: unlike
// BacklogSolo and friends it does not fold progress into remainingSec, so
// sampling on any cadence leaves the simulation trajectory — including its
// floating-point rounding — bit-identical to an unsampled run.
func (d *Device) SampleStats() Stats {
	st := Stats{
		ActiveJobs:     len(d.active),
		LaneQueued:     len(d.lane),
		PendingSpatial: len(d.pendingSpat),
		Failed:         d.failed,
	}
	dt := (d.eng.Now() - d.lastAdvance).Seconds()
	if dt < 0 {
		dt = 0
	}
	bw, compute := d.poolDemand()
	remaining := func(j *Job) time.Duration {
		rem := j.remainingSec - dt*d.rateWith(j, bw, compute)
		if rem < 0 {
			rem = 0
		}
		return time.Duration(rem * float64(time.Second))
	}
	for _, j := range d.active {
		st.ActiveDemand += j.FBR
		st.ActiveCompute += j.Compute
		st.BacklogSolo += remaining(j)
	}
	if d.laneRunning != nil {
		st.LaneBacklogSolo += remaining(d.laneRunning)
	}
	for _, j := range d.lane {
		st.BacklogSolo += j.Solo
		st.LaneBacklogSolo += j.Solo
	}
	for _, j := range d.pendingSpat {
		st.BacklogSolo += j.Solo
	}
	return st
}

// WorkDone returns the cumulative solo-equivalent work completed, for
// conservation checks in tests.
func (d *Device) WorkDone() time.Duration {
	d.advance()
	return d.workDone
}

// BusyTime returns the cumulative non-idle time, for power and utilization
// accounting.
func (d *Device) BusyTime() time.Duration {
	d.advance()
	return d.busy
}
