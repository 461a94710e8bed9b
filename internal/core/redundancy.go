// Redundant dispatch: clone-to-k and hedged request copies racing on
// distinct hardware pools (the processor-sharing cloning model of
// arXiv 2002.04416), with cancel-on-first-complete or the synchronized-
// service variant, layered on the same device/cluster/container runtime the
// split-dispatch schemes use. A redundancy-bearing Scheme swaps the
// dispatcher and hardware-selection halves of the runner for this file's
// manager; every other scheme keeps the exact event sequence it had.

package core

import (
	"time"

	"repro/internal/batch"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// maxCopies bounds the copies of one request set: the primary plus up to two
// clones (the catalog has three distinct GPU types), or a primary plus one
// hedged backup.
const maxCopies = 3

// redundancy manages the in-flight clone sets of a redundant-dispatch run
// and the hardware pools they race on, which are the runner's slots. Unlike
// the adaptive path there is no hardware switching: the pools are chosen
// once (cost-ascending from the capable pool) and only replaced when a node
// dies or is revoked, or upgraded when the load outgrows them.
type redundancy struct {
	r     *runner
	t     *tenant // the one workload served (redundancy is single-tenant)
	k     int     // copies per set (clone mode)
	sync  bool    // synchronized-service variant
	hedge bool
	age   *metrics.AgeTracker // hedge mode: online completion-latency percentile

	free []*cloneSet // recycled sets
	sets []*cloneSet // every set allocated, live or recycled
}

// newRedundancy sets up the manager and the run's pool slots: the distinct
// GPU types for the warm-start rate, SpotFraction of them — the costliest
// ones, where the discount buys the most — on spot capacity.
func newRedundancy(r *runner) *redundancy {
	rd := r.cfg.Scheme.Redundancy
	d := &redundancy{r: r, t: r.tenants[0], k: rd.CloneK, sync: rd.Synchronized, hedge: rd.HedgePct > 0}
	need := d.k
	if d.hedge {
		d.age = metrics.NewAgeTracker(rd.HedgePct)
		need = 2
	}
	rows := redundantSpecs(d.t.rows, d.t.arr.InitRPS(2*time.Second), r.cfg.SLO, need)
	spotCount := 0
	if r.cfg.SpotDiscount > 0 {
		spotCount = int(r.cfg.SpotFraction*float64(len(rows)) + 0.5)
	}
	for i, row := range rows {
		r.slots = append(r.slots, &slot{spec: row.Hardware, spot: i >= len(rows)-spotCount, pool: true})
	}
	return d
}

// redundantSpecs picks the rows of the distinct GPU types the pools run on:
// the capable pool for the warm-start rate first (cost-ascending, like
// Algorithm 1's candidate order), topped up from the rest of the catalog so
// k pools exist even when fewer types are individually capable.
func redundantSpecs(rows *profile.Rows, rate float64, slo time.Duration, need int) []*profile.Entry {
	var picked []*profile.Entry
	add := func(e *profile.Entry) {
		if !e.Hardware.IsGPU() {
			return
		}
		for _, s := range picked {
			if s.Hardware.Name == e.Hardware.Name {
				return
			}
		}
		picked = append(picked, e)
	}
	for _, e := range rows.AppendCapable(nil, rate, slo) {
		add(e)
	}
	for _, e := range rows.ByCost {
		add(e)
	}
	if len(picked) > need {
		picked = picked[:need]
	}
	return picked
}

// dispatch serves this window's pending requests: each batch becomes one
// clone set with k racing copies (clone mode) or a primary plus an armed
// hedge timer. With zero healthy pools requests wait in the batcher —
// maintain() is already procuring replacements — and are re-dispatched once
// a pool returns.
func (d *redundancy) dispatch() {
	r := d.r
	n := d.t.bat.Pending()
	if n == 0 {
		return
	}
	healthy := r.healthyNodes()
	if len(healthy) == 0 {
		return
	}
	primary := healthy[0]
	bs := primary.lanes[0].entry.PreferredBatch
	used := healthy[:1]
	if !d.hedge {
		used = healthy[:min(d.k, len(healthy))]
	}
	// Interference-aware admission, the Eq. (1) spirit on the cloning path:
	// every used pool must have a free resident slot per batch (Busy+Waiting
	// containers each carry one in-flight copy), and the slots themselves
	// are capped so PS sharing still meets the SLO. Work beyond that waits
	// in the batcher — reroutable, and out of the blast radius of a
	// mid-queue revocation kill.
	for _, sn := range used {
		if sn.resCap == 0 {
			sn.resCap = residentCap(sn, r.cfg.SLO)
		}
		pool := sn.lanes[0].pool
		free := sn.resCap - pool.Busy() - pool.Waiting()
		if free < 0 {
			free = 0
		}
		if max := free * bs; n > max {
			n = max
		}
	}
	if n <= 0 {
		return
	}
	r.sizesScratch = batch.SplitSizes(r.sizesScratch, n, bs)
	for _, size := range r.sizesScratch {
		s := d.newSet()
		s.dispatched = r.eng.Now()
		s.reqs = d.t.bat.TakeInto(s.reqs[:0], size)
		if d.hedge {
			s.launch(0, primary)
			// The backup launches when the batch's oldest request is older
			// than the tracked completion-latency percentile.
			fireAt := s.reqs[0].Arrival + d.hedgeThreshold()
			delay := fireAt - r.eng.Now()
			if delay < 0 {
				delay = 0
			}
			s.hedgeTimer = r.eng.Schedule(delay, s.hedgeFn)
			continue
		}
		for i, sn := range used {
			s.launch(i, sn)
		}
	}
}

// residentCap bounds co-resident copies on a pool: the largest count (up to
// the node's memory slots) whose processor-sharing interference — bandwidth
// slowdown, compute occupancy, MPS client overhead — still finishes a
// preferred batch inside the SLO. Without it a drained backlog piles onto
// the device all at once and every job slows every other past the deadline.
func residentCap(sn *servingNode, slo time.Duration) int {
	entry := sn.lanes[0].entry
	solo := entry.SoloBatch
	fbr := entry.FBR
	comp := entry.ComputeFrac
	best := 1
	for c := 2; c <= entry.MaxResidentJobs; c++ {
		slow := profile.Slowdown(float64(c)*fbr, fbr)
		if agg := float64(c) * comp; agg > 1 && agg > slow {
			slow = agg
		}
		est := time.Duration(float64(solo) * slow * profile.ClientOverhead(c))
		if est > slo {
			break
		}
		best = c
	}
	return best
}

// hedgeThreshold is the request age at which a backup launches: the online
// p(HedgePct) completion latency once the tracker has enough samples, half
// the SLO before that.
func (d *redundancy) hedgeThreshold() time.Duration {
	if d.age.Ready() {
		return d.age.Threshold()
	}
	return d.r.cfg.SLO / 2
}

// maintain is the redundancy path's monitor tick: dead or revoked pool
// nodes are retired (draining what the revocation notice allows) and
// replaced with a fresh node of the same spec — spot again, for spot pools.
// Pools also escalate: each copy carries the whole request stream, so when
// the observed rate outgrows a pool's hardware the pool upgrades to the
// cheapest GPU that sustains it. Upgrades are one-way (no downgrade
// oscillation on erratic traces) and staggered — at most one pool swaps per
// tick, and only while every other pool is healthy, so the remaining copies
// keep serving through the gap.
func (d *redundancy) maintain() {
	r := d.r
	obs := d.t.obs.ObservedRPS(r.eng.Now())
	upgraded := false
	for _, s := range r.slots {
		if s.sn.healthy() {
			row := s.sn.lanes[0].entry
			if upgraded || !(obs > profile.Headroom*row.ThroughputRPS) || !d.othersHealthy(s) {
				continue
			}
			up, ok := upgradeSpec(d.t.rows, obs, row)
			if !ok {
				continue
			}
			upgraded = true
			s.spec = up.Hardware
		}
		if s.sn != nil {
			r.retire(s.sn)
			s.sn = nil
		}
		if !s.acquiring {
			r.procure(s, 0, d.respawned)
		}
	}
}

// respawned counts a pool's replacement node as a hardware switch once it
// serves.
func (d *redundancy) respawned(sn, _ *servingNode) {
	d.r.switches++
	d.r.emit(telemetry.HWSwitch, sn.node.ID, sn.node.Spec.Name, "respawn")
}

// othersHealthy reports whether every pool except s has a live, unfailed,
// unrevoked node — the precondition for taking s down for an upgrade.
func (d *redundancy) othersHealthy(s *slot) bool {
	for _, o := range d.r.slots {
		if o != s && (o.acquiring || !o.sn.healthy()) {
			return false
		}
	}
	return true
}

// upgradeSpec picks the row of the pool's next hardware: the cheapest GPU
// that sustains rate with headroom, or — when nothing does — the highest-
// throughput GPU. Reports false when the current row is already the right
// choice (never proposes a slower node).
func upgradeSpec(rows *profile.Rows, rate float64, cur *profile.Entry) (*profile.Entry, bool) {
	curTP := cur.ThroughputRPS
	for _, e := range rows.ByCost {
		if !e.Hardware.IsGPU() {
			continue
		}
		if profile.Headroom*e.ThroughputRPS >= rate {
			if e.Hardware.Name != cur.Hardware.Name && e.ThroughputRPS > curTP {
				return e, true
			}
			return nil, false
		}
	}
	var best *profile.Entry
	for _, e := range rows.ByCost {
		if e.Hardware.IsGPU() && e.ThroughputRPS > curTP {
			if best == nil || e.ThroughputRPS > best.ThroughputRPS {
				best = e
			}
		}
	}
	return best, best != nil
}

// --- clone sets ----------------------------------------------------------------

// cloneSet is one batch of requests and its redundant copies. Sets are
// recycled through the manager's free list; the per-copy Done/submit
// closures are bound once per set lifetime, so steady-state clone dispatch
// allocates nothing.
type cloneSet struct {
	red        *redundancy
	reqs       []batch.Request // owned copy; reused across lifetimes
	dispatched time.Duration
	copies     [maxCopies]cloneCopy
	launched   int
	done       int // copies whose Done fired
	failedC    int
	live       int // copies with a closure still able to run
	resolved   bool
	lastOK     *cloneCopy // sync mode: last successfully finished copy
	hedged     bool
	hedgeTimer sim.Timer
	hedgeFn    func()
}

// cloneCopy is one redundant copy: a device job on one pool's node plus the
// container claim that carries it.
type cloneCopy struct {
	set       *cloneSet
	node      *servingNode
	job       device.Job
	cold      time.Duration
	submitted bool
	cancelled bool
	finished  bool
	doneFn    func(*device.Job)
	submitFn  func()
}

func (d *redundancy) newSet() *cloneSet {
	if n := len(d.free); n > 0 {
		s := d.free[n-1]
		d.free = d.free[:n-1]
		s.reset()
		return s
	}
	s := &cloneSet{red: d}
	d.sets = append(d.sets, s)
	for i := range s.copies {
		c := &s.copies[i]
		c.set = s
		c.doneFn = func(j *device.Job) { c.complete(j) }
		c.submitFn = func() { c.submit() }
	}
	s.hedgeFn = func() { s.hedgeFire() }
	return s
}

func (s *cloneSet) reset() {
	s.dispatched = 0
	s.launched, s.done, s.failedC, s.live = 0, 0, 0, 0
	s.resolved, s.hedged = false, false
	s.lastOK = nil
	s.hedgeTimer = sim.Timer{}
	for i := range s.copies {
		c := &s.copies[i]
		c.node = nil
		c.cold = 0
		c.submitted, c.cancelled, c.finished = false, false, false
	}
}

// launch dispatches copy idx (reset with its set) on the given pool node.
// Copy 0 is the primary (a normal Dispatched); later copies emit Cloned with
// detail "clone" or "hedge". Each copy claims its own container on its own
// pool.
func (s *cloneSet) launch(idx int, sn *servingNode) {
	r := s.red.r
	c := &s.copies[idx]
	c.node = sn

	job := &c.job
	job.Reset()
	job.Batch = len(s.reqs)
	entry := sn.lanes[0].entry
	job.Solo = entry.SoloAt(len(s.reqs))
	job.FBR = entry.FBR
	job.Compute = entry.ComputeAt(len(s.reqs))
	job.Mode = device.Spatial // copies follow the pure-PS cloning model
	job.Done = c.doneFn
	if r.tel != nil {
		r.jobSeq++
		job.ID = r.jobSeq
		if r.life {
			e := telemetry.Ev(r.eng.Now(), telemetry.Dispatched)
			e.Detail = device.Spatial.String()
			if idx > 0 {
				e.Kind, e.Detail = telemetry.Cloned, "clone"
				if s.red.hedge {
					e.Detail = "hedge"
				}
			}
			e.Job, e.Node, e.Spec, e.N = job.ID, sn.node.ID, sn.node.Spec.Name, len(s.reqs)
			r.emitReqs(e, s.reqs)
		}
	}
	if inv := r.cfg.Invariants; inv != nil {
		inv.CopyLaunched(r.eng.Now(), job.ID)
	}
	s.launched++
	s.live++
	// Reactive scale-up, one container per copy: Busy covers in-flight
	// batches, Waiting the claims earlier sets filed this window (Ensure
	// compares against Total, which already counts their boots).
	pool := sn.lanes[0].pool
	pool.Ensure(pool.Busy() + pool.Waiting() + 1)
	pool.AcquireOrWait(c.submitFn)
}

// submit runs when the copy's container claim lands. A copy cancelled while
// still waiting gives the container straight back.
func (c *cloneCopy) submit() {
	if c.cancelled {
		c.node.lanes[0].pool.Release()
		c.set.live--
		c.set.maybeRecycle()
		return
	}
	r := c.set.red.r
	c.cold = r.eng.Now() - c.set.dispatched
	c.submitted = true
	c.node.node.Device.Submit(&c.job)
}

// complete is the copy's device Done: first success wins the race (clone
// mode), the last finisher closes a synchronized set, and a set whose every
// copy failed fails its requests.
func (c *cloneCopy) complete(j *device.Job) {
	s := c.set
	c.finished = true
	s.done++
	s.live--
	c.node.lanes[0].pool.Release()
	if j.Failed {
		s.failedC++
		if !s.resolved && s.done == s.launched {
			if s.failedC == s.launched {
				s.resolveFailed(c)
			} else if s.red.sync {
				// The barrier's last copy failed; the set completes now on
				// the last successful copy (positive synchronization slack).
				s.resolveWin(s.lastOK)
			}
		}
		s.maybeRecycle()
		return
	}
	if s.red.sync {
		s.lastOK = c
		if !s.resolved && s.done == s.launched {
			s.resolveWin(c)
		}
		s.maybeRecycle()
		return
	}
	if !s.resolved {
		s.resolveWin(c)
	}
	s.maybeRecycle()
}

// hedgeFire launches the backup copy when the hedge timer expires. A no-op
// once the set resolved (the primary finished first) or if no second pool
// is healthy.
func (s *cloneSet) hedgeFire() {
	if s.resolved || s.hedged {
		return
	}
	primary := s.copies[0].node
	var backup *servingNode
	for _, sn := range s.red.r.healthyNodes() {
		if sn != primary {
			backup = sn
			break
		}
	}
	if backup == nil {
		return
	}
	s.hedged = true
	s.launch(1, backup)
}

// stampSpan fills sp with the stamps the set's requests share: copy 0's
// dispatch and device stages — its execution end once it finished — and
// the redundancy counters.
func (s *cloneSet) stampSpan(sp *telemetry.Span) {
	c0 := &s.copies[0]
	stampJob(sp, s.dispatched, c0.node, &c0.job, device.Spatial, telemetry.Stamp(c0.finished, c0.job.Finished))
	sp.Clones = s.launched - 1
	sp.Hedged = s.red.hedge && s.launched > 1
}

// resolveWin completes the set on the scoring copy: every unfinished
// sibling is cancelled (its device capacity released, CloneCancelled
// emitted before the Completed events), outcomes are recorded from the
// winner's stamps, and in hedge mode the latencies feed the age tracker.
// The requests' spans carry copy 0's stamps, its execution ending at the
// cancel instant when it lost the race.
func (s *cloneSet) resolveWin(c *cloneCopy) {
	d := s.red
	r := d.r
	s.resolved = true
	s.hedgeTimer.Cancel()
	now := r.eng.Now()
	cancelled := 0
	for i := 0; i < s.launched; i++ {
		o := &s.copies[i]
		if o == c || o.finished || o.cancelled {
			continue
		}
		o.cancelled = true
		cancelled++
		if o.submitted {
			o.node.node.Device.Cancel(&o.job)
			o.node.lanes[0].pool.Release()
			s.live--
		}
		if r.life {
			e := telemetry.Ev(now, telemetry.CloneCancelled)
			e.Job = o.job.ID
			r.emitReqs(e, s.reqs)
		}
		if inv := r.cfg.Invariants; inv != nil {
			inv.CopyCancelled(now, o.job.ID)
		}
	}
	s.checkResolved(now, c.job.ID)
	if r.tel != nil {
		e := telemetry.Ev(now, telemetry.Completed)
		e.Job, e.Node = c.job.ID, c.node.node.ID
		if r.spans != nil {
			sp := &r.span
			sp.Reset(0, d.t.idx)
			s.stampSpan(sp)
			if s.copies[0].cancelled {
				sp.ExecEnd = now
			}
			sp.Cancelled = cancelled
			sp.Completed = now
		}
		r.finishReqs(e, s.reqs)
	}
	r.record(d.t, s.reqs, s.dispatched, jobRecord(&c.job, c.cold))
	if d.hedge {
		for _, q := range s.reqs {
			d.age.Add(now - q.Arrival)
		}
	}
}

// resolveFailed fails the whole set: every copy died (node failures or
// revocation kills on all pools at once).
func (s *cloneSet) resolveFailed(c *cloneCopy) {
	r := s.red.r
	s.resolved = true
	s.hedgeTimer.Cancel()
	s.checkResolved(r.eng.Now(), 0)
	if r.tel != nil {
		e := telemetry.Ev(r.eng.Now(), telemetry.Failed)
		e.Job, e.Node = c.job.ID, c.node.node.ID
		if r.spans != nil {
			sp := &r.span
			sp.Reset(0, s.red.t.idx)
			s.stampSpan(sp)
			sp.Completed, sp.Failed = e.At, true
		}
		r.finishReqs(e, s.reqs)
	}
	// A failed set's outcomes carry no queueing or interference components.
	r.record(s.red.t, s.reqs, s.dispatched, metrics.Record{ColdStart: c.cold, MinExec: c.job.Solo, Failed: true})
}

// checkResolved reports the set's resolution on the scoring copy's job (0
// when every copy failed) to the invariant checker, if one is attached.
func (s *cloneSet) checkResolved(at time.Duration, scoring int64) {
	inv := s.red.r.cfg.Invariants
	if inv == nil {
		return
	}
	var ids [maxCopies]int64
	for i := range s.launched {
		ids[i] = s.copies[i].job.ID
	}
	inv.CloneResolved(at, scoring, s.red.sync, ids[:s.launched])
}

// maybeRecycle returns the set to the free list once it has resolved and no
// copy closure can run again.
func (s *cloneSet) maybeRecycle() {
	if !s.resolved || s.live != 0 {
		return
	}
	s.red.free = append(s.red.free, s)
}
