// The hardware-selection half of the serving runtime (Fig. 2's Hardware
// Selection module): every monitor interval the scheme's desired node type
// is evaluated against the procurement-lead forecast, debounced with
// Algorithm 1's wait_ctr, acquired in the background and swapped in once
// its containers are warm; node failures trigger the failover rule; the
// optional scale-out extension manages same-type replicas.

package core

import (
	"slices"
	"time"

	"repro/internal/hardware"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// --- hardware selection ------------------------------------------------------

func (r *runner) monitorTick() {
	if r.red != nil {
		r.red.maintain()
		return
	}
	now, cur := r.eng.Now(), r.primary()
	if !cur.healthy() {
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
		pred = append(pred, t.predictAt(now, DefaultHWLead))
		obs = append(obs, t.obs.ObservedRPS(now))
	}
	r.predScratch, r.obsScratch = pred, obs
	desired := r.desiredHardware(pred, obs)
	if desired.Name == cur.node.Spec.Name {
		r.waitCtr = 0
		r.manageScaleOut(pred[0])
		return
	}
	// Downgrades are held off briefly after a switch and need a longer run
	// of consistent mismatches; upgrades are never delayed.
	limit := r.cfg.Scheme.Policy.WaitLimit()
	if desired.CostPerHour < cur.node.Spec.CostPerHour {
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
	p := r.slots[0]
	if p.acquiring {
		return // one acquisition in flight at a time
	}
	r.waitCtr = 0
	p.spec = desired
	warm := 0
	if r.cfg.Scheme.Clairvoyant {
		warm = 1
	}
	r.procure(p, warm, r.swapped)
}

// manageScaleOut adjusts the replica count when the current node type is
// the right choice but one instance cannot sustain the forecast. Scale-out
// is single-tenant (RunMulti cannot set MaxNodes).
func (r *runner) manageScaleOut(rate float64) {
	if r.cfg.MaxNodes <= 1 {
		return
	}
	p := r.slots[0]
	sustainable := profile.Headroom * p.sn.lanes[0].entry.ThroughputRPS
	want := 1
	if sustainable > 0 && rate > sustainable {
		want = int(rate/sustainable) + 1
		if want > r.cfg.MaxNodes {
			want = r.cfg.MaxNodes
		}
	}
	now := r.eng.Now()
	for have := len(r.slots); have < want; have++ {
		s := &slot{spec: p.sn.node.Spec, spot: p.spot}
		r.slots = append(r.slots, s)
		r.procure(s, 0, func(sn, _ *servingNode) {
			r.lastScale = r.eng.Now()
			r.emit(telemetry.ScaleOut, sn.node.ID, sn.node.Spec.Name, "")
		})
		r.lastScale = now
	}
	// Scale-in with hysteresis, one replica at a time: the one that landed
	// last (replicas land in slot order; still-procuring ones don't count).
	landed, last := 0, 0
	for i, s := range r.slots[1:] {
		if s.sn != nil {
			landed, last = landed+1, i+1
		}
	}
	if want < 1+landed && now-r.lastScale >= minHold {
		sn := r.slots[last].sn
		r.slots = slices.Delete(r.slots, last, last+1)
		r.retire(sn)
		r.lastScale = now
		r.emit(telemetry.ScaleIn, sn.node.ID, sn.node.Spec.Name, "")
	}
}

// swapped finishes a primary switch once the new node sn serves: the
// switch is counted and timed, and the replicas and the old node retire.
func (r *runner) swapped(sn, old *servingNode) {
	r.switches++
	r.lastSwap = r.eng.Now()
	r.history = append(r.history, SwitchEvent{At: r.eng.Now(), Spec: sn.node.Spec.Name})
	// A node-type switch retires any replicas of the old type; scale-out
	// re-evaluates against the new type on the next monitor tick.
	kept := r.slots[:1]
	for _, s := range r.slots[1:] {
		if s.sn == nil {
			kept = append(kept, s)
			continue
		}
		r.retire(s.sn)
	}
	clear(r.slots[len(kept):])
	r.slots = kept
	r.emit(telemetry.HWSwitch, sn.node.ID, sn.node.Spec.Name, "")
	if old != nil {
		r.retire(old)
	}
}

// drainPoll is how often a retiring node is checked for a drained device.
const drainPoll = 500 * time.Millisecond

// retire drains and releases a node that no longer receives new work. It
// polls the node now and every 500 ms after until the device is drained or
// two minutes (240 further polls) have passed.
func (r *runner) retire(old *servingNode) {
	old.retired = true
	deadline := r.eng.Now() + 240*drainPoll
	draining := func() bool {
		dev := old.node.Device
		return r.eng.Now() < deadline && dev != nil && !dev.Failed() &&
			(dev.ActiveCount() > 0 || dev.LaneLength() > 0 || old.outstanding() > 0)
	}
	release := func() {
		r.accumulateNode(old)
		r.clu.Release(old.node)
	}
	if !draining() {
		release()
		return
	}
	r.eng.Every(drainPoll, draining, func() {
		if !draining() { // the last poll: draining just stopped the ticker
			release()
		}
	})
}

// accumulateNode folds a node's container boot counts into the run totals.
func (r *runner) accumulateNode(sn *servingNode) {
	for i := range sn.lanes {
		p := sn.lanes[i].pool
		r.boots += p.Boots()
		r.syncColds += p.SyncColdStarts()
	}
}

// --- faults --------------------------------------------------------------------

// faultTarget advances cursor round-robin over the slots fault injection may
// hit — the primary, or every clone/hedge pool; scale-out replicas are
// spared — and returns the first whose node exists, has no revocation notice
// and, when spotOnly, runs on spot capacity. Nil when none qualifies.
func (r *runner) faultTarget(cursor *int, spotOnly bool) *slot {
	for range r.slots {
		i := *cursor % len(r.slots)
		*cursor++
		s := r.slots[i]
		if (i == 0 || s.pool) && s.sn != nil && !s.sn.node.Revoked() && (s.spot || !spotOnly) {
			return s
		}
	}
	return nil
}

// failureTick injects one node failure. A failed primary fails over at
// once; a failed pool is respawned by the next maintenance tick.
func (r *runner) failureTick() {
	s := r.faultTarget(&r.failCursor, false)
	if s == nil {
		return
	}
	r.failures++
	r.clu.Fail(s.sn.node, r.cfg.FailureDuration)
	if !s.pool {
		r.ensureFailover()
	}
}

// revokeTick injects one spot revocation: the targeted node gets its notice
// and drains; a revoked primary's failover replacement is acquired while it
// drains.
func (r *runner) revokeTick() {
	s := r.faultTarget(&r.revokeCursor, true)
	if s == nil {
		return
	}
	r.clu.Revoke(s.sn.node, r.cfg.RevokeNotice)
	if !s.pool {
		r.ensureFailover()
	}
}

// ensureFailover procures the failure-study replacement node if the primary
// is down and nothing is on the way.
func (r *runner) ensureFailover() {
	if p := r.slots[0]; !p.acquiring {
		r.reconfigure(FailoverSpec(p.sn.node.Spec))
	}
}
