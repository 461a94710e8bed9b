// The hardware-selection half of the serving runtime (Fig. 2's Hardware
// Selection module): every monitor interval the scheme's desired node type
// is evaluated against the procurement-lead forecast, debounced with
// Algorithm 1's wait_ctr, procured in the background and swapped in once
// its containers are warm; node failures trigger the failover rule; the
// optional scale-out extension manages same-type replicas.

package core

import (
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// --- hardware selection ------------------------------------------------------

func (r *runner) monitorTick() {
	now := r.eng.Now()
	// Hardware selection keeps running while a backlog is draining past the
	// trace end (a failover may have left the system on an undersized node).
	if now < r.end || r.pending() > 0 {
		r.eng.Schedule(r.cfg.MonitorInterval, r.monitorTickFn)
	}
	if r.red != nil {
		r.red.maintain()
		return
	}
	if r.cur != nil && r.cur.node.Device != nil &&
		(r.cur.node.Device.Failed() || r.cur.node.Revoked()) {
		r.ensureFailover()
		return
	}
	// Hardware is selected against the procurement-lead forecast, so a
	// capable node is serving by the time the predicted traffic lands.
	// Only a confident forecast is worth procuring against: a long lead
	// multiplies model error, so predictAt is confidence-gated at the
	// source — below the floor it returns the observed (reactive) rate
	// instead (see setupPredictor and DESIGN.md §10).
	pred, obs := r.predScratch[:0], r.obsScratch[:0]
	for _, t := range r.tenants {
		pred = append(pred, t.predictAt(now, r.cfg.HWLead))
		obs = append(obs, t.observedRPS(now))
	}
	r.predScratch, r.obsScratch = pred, obs
	desired := r.desiredHardware(pred, obs)
	if r.cur != nil && desired.Name == r.cur.node.Spec.Name {
		r.waitCtr = 0
		r.manageScaleOut(pred[0])
		return
	}
	// Downgrades are held off briefly after a switch and need a longer run
	// of consistent mismatches; upgrades are never delayed.
	limit := r.cfg.Scheme.Policy.WaitLimit()
	if r.cur != nil && desired.CostPerHour < r.cur.node.Spec.CostPerHour {
		if now-r.lastSwap < minHold {
			return
		}
		limit *= downgradeFactor
	}
	r.waitCtr++
	if r.waitCtr < limit {
		return
	}
	r.reconfigure(desired)
}

// desiredHardware resolves the tenants' predicted and observed rates into
// one node type. A tenant's policy only understands its own workload, so
// each tenant's rate is first converted into a work-equivalent rate covering
// every tenant: its own rate plus the other tenants' work per second (rate x
// per-sample time on a reference GPU) divided by its own per-sample time.
// The policy sizes hardware for that aggregate in its own units, and the
// most capable of the per-tenant answers wins — a node every tenant accepts.
// With one tenant this is exactly the policy's DesiredHardware.
func (r *runner) desiredHardware(pred, obs []float64) hardware.Spec {
	var best hardware.Spec
	for i, t := range r.tenants {
		p, o := pred[i], obs[i]
		if t.perSample > 0 {
			var predWork, obsWork float64
			for j, u := range r.tenants {
				if j != i {
					predWork += pred[j] * u.perSample
					obsWork += obs[j] * u.perSample
				}
			}
			p += predWork / t.perSample
			o += obsWork / t.perSample
		}
		d := r.cfg.Scheme.Policy.DesiredHardware(r.stateWithRates(t, p, o))
		if i == 0 || d.ComputeScore > best.ComputeScore ||
			(d.ComputeScore == best.ComputeScore && d.CostPerHour > best.CostPerHour) {
			best = d
		}
	}
	return best
}

// reconfigure procures the desired node in the background and swaps to it
// once its containers are warm (Algorithm 1's reconfigure_HW).
func (r *runner) reconfigure(desired hardware.Spec) {
	if r.procured {
		return // one acquisition in flight at a time
	}
	r.procured = true
	r.waitCtr = 0
	maxRes := r.maxResident(desired)
	if r.cfg.Scheme.InstantProcure {
		node := r.clu.AcquireSpot(desired, maxRes, r.spotDiscount())
		sn := r.wireNode(node)
		for i := range sn.lanes {
			sn.lanes[i].pool.AddWarm(1)
		}
		r.swapTo(sn)
		r.procured = false
		return
	}
	r.clu.AcquireAsyncSpot(desired, maxRes, r.spotDiscount(), func(node *cluster.Node) {
		sn := r.wireNode(node)
		// Container spawning overlaps the VM launch (Algorithm 1 does both
		// in the background before rerouting); only a short boot tail is
		// exposed. Pre-warm for the predicted load plus any backlog
		// awaiting reroute, so the swap does not stall on synchronous cold
		// starts.
		for i, t := range r.tenants {
			ln := &sn.lanes[i]
			need := r.containerTarget(t, ln)
			if backlog := autoscale.ReactiveContainers(t.bat.Pending(), ln.entry.PreferredBatch); backlog > need {
				need = backlog
			}
			// In-flight jobs are bounded by device memory plus the lane, so
			// the pool never needs more than that.
			if cap := ln.entry.MaxResidentJobs + laneCap; need > cap {
				need = cap
			}
			ln.pool.EnsureWithin(need, swapTail)
		}
		r.eng.Schedule(swapTail, func() {
			r.swapTo(sn)
			r.procured = false
		})
	})
}

// manageScaleOut adjusts the replica count when the current node type is
// the right choice but one instance cannot sustain the forecast. Scale-out
// is single-tenant (RunMulti cannot set MaxNodes).
func (r *runner) manageScaleOut(rate float64) {
	if r.cfg.MaxNodes <= 1 || r.cur == nil {
		return
	}
	t := r.tenants[0]
	sustainable := profile.Headroom * r.cur.lanes[0].entry.ThroughputRPS
	want := 1
	if sustainable > 0 && rate > sustainable {
		want = int(rate/sustainable) + 1
		if want > r.cfg.MaxNodes {
			want = r.cfg.MaxNodes
		}
	}
	have := 1 + len(r.replicas) + r.replicaPending
	now := r.eng.Now()
	for ; have < want; have++ {
		r.replicaPending++
		spec := r.cur.node.Spec
		r.clu.AcquireAsyncSpot(spec, r.maxResident(spec), r.spotDiscount(), func(node *cluster.Node) {
			sn := r.wireNode(node)
			ln := &sn.lanes[0]
			ln.pool.EnsureWithin(r.containerTarget(t, ln), swapTail)
			r.eng.Schedule(swapTail, func() {
				r.replicaPending--
				r.replicas = append(r.replicas, sn)
				sn.startControllers()
				r.lastScale = r.eng.Now()
				r.emit(telemetry.ScaleOut, node.ID, node.Spec.Name, "")
			})
		})
		r.lastScale = now
	}
	// Scale-in with hysteresis, one replica at a time.
	if want < 1+len(r.replicas) && now-r.lastScale >= minHold {
		last := r.replicas[len(r.replicas)-1]
		r.replicas = r.replicas[:len(r.replicas)-1]
		r.retire(last)
		r.lastScale = now
		r.emit(telemetry.ScaleIn, last.node.ID, last.node.Spec.Name, "")
	}
}

func (r *runner) swapTo(sn *servingNode) {
	old := r.cur
	r.cur = sn
	r.switches++
	r.lastSwap = r.eng.Now()
	r.history = append(r.history, SwitchEvent{At: r.eng.Now(), Spec: sn.node.Spec.Name})
	sn.startControllers()
	// A node-type switch retires any replicas of the old type; scale-out
	// re-evaluates against the new type on the next monitor tick.
	for _, rep := range r.replicas {
		r.retire(rep)
	}
	r.replicas = nil
	r.emit(telemetry.HWSwitch, sn.node.ID, sn.node.Spec.Name, "")
	if old != nil {
		r.retire(old)
	}
}

// retire drains and releases a node that no longer receives new work.
func (r *runner) retire(old *servingNode) {
	old.stopControllers()
	attempts := 0
	var poll func()
	poll = func() {
		dev := old.node.Device
		drained := dev == nil || dev.Failed() ||
			(dev.ActiveCount() == 0 && dev.LaneLength() == 0 && old.outstanding() == 0)
		attempts++
		if drained || attempts > 240 {
			r.accumulateNode(old)
			r.clu.Release(old.node)
			return
		}
		r.eng.Schedule(500*time.Millisecond, poll)
	}
	poll()
}

// accumulateNode folds a node's container boot counts into the run totals.
func (r *runner) accumulateNode(sn *servingNode) {
	for i := range sn.lanes {
		p := sn.lanes[i].pool
		r.boots += p.Boots()
		r.syncColds += p.SyncColdStarts()
	}
}

// --- failures ------------------------------------------------------------------

func (r *runner) failureTick() {
	now := r.eng.Now()
	if now < r.end {
		r.eng.Schedule(r.cfg.FailureEvery, r.failureTickFn)
	}
	if r.red != nil {
		if r.red.failNext() {
			r.failures++
		}
		return
	}
	if r.cur == nil || r.cur.node.Device == nil || r.cur.node.Revoked() {
		return
	}
	r.failures++
	r.clu.Fail(r.cur.node, r.cfg.FailureDuration)
	r.ensureFailover()
}

// revokeTick injects one spot revocation: in redundancy mode the next spot
// pool in round-robin order gets its notice; in the plain path the serving
// node does (if it is spot), and a failover replacement is procured while it
// drains.
func (r *runner) revokeTick() {
	now := r.eng.Now()
	if now < r.end {
		r.eng.Schedule(r.cfg.RevokeEvery, r.revokeTickFn)
	}
	if r.red != nil {
		r.red.revokeNext()
		return
	}
	if r.cur == nil || !r.cur.node.Spot() || r.cur.node.Revoked() {
		return
	}
	r.clu.Revoke(r.cur.node, r.cfg.RevokeNotice)
	r.ensureFailover()
}

// ensureFailover procures the failure-study replacement node if the current
// one is down and nothing is on the way.
func (r *runner) ensureFailover() {
	if r.procured || r.cur == nil {
		return
	}
	r.reconfigure(FailoverSpec(r.cur.node.Spec))
}
