// Package cluster manages the simulated worker-node fleet: procuring VMs
// (with launch latency, in the background, as Algorithm 1's reconfigure_HW
// does), releasing them, injecting node failures, and keeping the books the
// paper's evaluation needs — per-node-type dollar cost weighted by time held,
// energy under a linear idle-to-peak power model, and device utilization.
package cluster

import (
	"time"

	"repro/internal/device"
	"repro/internal/hardware"
	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Node is one acquired worker VM.
type Node struct {
	// ID is unique within the cluster, in acquisition order.
	ID int
	// Spec is the node type.
	Spec hardware.Spec
	// Device is the node's simulated compute device.
	Device *device.Device

	acquiredAt time.Duration
	releasedAt time.Duration
	released   bool
	failUntil  time.Duration // end of the latest failure window
	discount   float64       // spot price discount in [0,1); 0 = on-demand
	revoked    bool          // revocation notice received
}

// heldFor returns how long the node has been (or was) held.
func (n *Node) heldFor(now time.Duration) time.Duration {
	end := now
	if n.released {
		end = n.releasedAt
	}
	return end - n.acquiredAt
}

// Released reports whether the node has been relinquished.
func (n *Node) Released() bool { return n.released }

// Rate returns the node's effective price per second: the catalog price
// reduced by the spot discount.
func (n *Node) Rate() float64 { return n.Spec.CostPerSecond() * (1 - n.discount) }

// Spot reports whether the node is a discounted, revocable spot instance.
func (n *Node) Spot() bool { return n.discount > 0 }

// Revoked reports whether the node has received a revocation notice. A
// revoked node keeps draining until the notice expires, then fails whatever
// is left and releases itself; schedulers must stop routing work to it the
// moment this turns true.
func (n *Node) Revoked() bool { return n.revoked }

// Cluster tracks every node ever acquired in one simulation run.
type Cluster struct {
	eng    *sim.Engine
	nodes  []*Node
	nextID int

	// Sink, when set, receives node lifecycle events and is propagated to
	// every device the cluster creates (which emit job lifecycle events only
	// when it wants them).
	Sink telemetry.Sink

	// Check, when set, audits the books (billing monotonicity and
	// event-reconciled cost) on every lifecycle transition and is propagated
	// to every device the cluster creates. A nil Check costs one branch per
	// transition.
	Check *invariant.Checker
}

// New returns an empty cluster bound to the engine.
func New(eng *sim.Engine) *Cluster {
	return &Cluster{eng: eng}
}

// transition records one node lifecycle transition: the event to the sink,
// then the books to the invariant checker, whose node ledger the event has
// just brought up to date.
func (c *Cluster) transition(kind telemetry.Kind, n *Node) {
	if c.Sink != nil {
		e := telemetry.Ev(c.eng.Now(), kind)
		e.Node = n.ID
		e.Spec = n.Spec.Name
		if n.discount > 0 {
			// Spot nodes bill below the catalog rate; carry the effective
			// rate so the invariant checker reconciles the ledger without a
			// catalog lookup. On-demand nodes leave Value/Detail zero,
			// keeping their event bytes identical to pre-spot output.
			e.Value = n.Rate()
			e.Detail = "spot"
		}
		c.Sink.Event(e)
	}
	if c.Check != nil {
		c.Check.Billing(c.eng.Now(), c.TotalCost())
	}
}

// Acquire procures a node immediately (no VM launch delay) — for nodes held
// from t=0 and for tests. maxResident caps spatial co-location on the
// device (0 = unlimited).
func (c *Cluster) Acquire(spec hardware.Spec, maxResident int) *Node {
	return c.AcquireSpot(spec, maxResident, 0)
}

// AcquireSpot is Acquire at a spot price: the node bills at the catalog rate
// reduced by discount (clamped to [0,1); 0 is plain on-demand). Spot nodes
// are the ones Revoke targets.
func (c *Cluster) AcquireSpot(spec hardware.Spec, maxResident int, discount float64) *Node {
	n := &Node{
		ID:         c.nextID,
		Spec:       spec,
		Device:     device.New(c.eng, spec, maxResident),
		acquiredAt: c.eng.Now(),
		discount:   clampDiscount(discount),
	}
	c.nextID++
	c.nodes = append(c.nodes, n)
	n.Device.SetTelemetry(c.Sink, n.ID)
	n.Device.SetCheck(c.Check, n.ID)
	c.transition(telemetry.NodeAcquired, n)
	return n
}

// AcquireAsync launches a VM of the given type; ready is invoked with the
// node once the spec's ProcureDelay elapses. Billing starts at launch (the
// provider pays for the VM from the moment it is requested). This is the
// background acquisition path of Algorithm 1: the caller keeps serving on
// its current node until ready fires.
func (c *Cluster) AcquireAsync(spec hardware.Spec, maxResident int, ready func(*Node)) {
	c.AcquireAsyncSpot(spec, maxResident, 0, ready)
}

// AcquireAsyncSpot is AcquireAsync at a spot price (see AcquireSpot). A node
// revoked or released while still launching never materializes a device and
// never invokes ready; its billing stops at release as usual.
func (c *Cluster) AcquireAsyncSpot(spec hardware.Spec, maxResident int, discount float64, ready func(*Node)) {
	n := &Node{
		ID:         c.nextID,
		Spec:       spec,
		acquiredAt: c.eng.Now(),
		discount:   clampDiscount(discount),
	}
	c.nextID++
	c.nodes = append(c.nodes, n)
	c.transition(telemetry.NodeRequested, n)
	c.eng.Schedule(spec.ProcureDelay, func() {
		if n.released {
			return
		}
		n.Device = device.New(c.eng, spec, maxResident)
		n.Device.SetTelemetry(c.Sink, n.ID)
		n.Device.SetCheck(c.Check, n.ID)
		c.transition(telemetry.NodeAcquired, n)
		ready(n)
	})
}

// Release relinquishes a node; it stops accruing cost. Releasing twice is a
// no-op.
func (c *Cluster) Release(n *Node) {
	if n.released {
		return
	}
	n.released = true
	n.releasedAt = c.eng.Now()
	c.transition(telemetry.NodeReleased, n)
}

// Fail makes the node unavailable (failing all in-flight work) for the given
// duration, then recovers it — the paper's induced node-failure scenario.
// Failing an already-failed node extends the outage to the later recovery
// time without emitting a duplicate NodeFailed event: the node recovers
// exactly once, when the latest failure window ends.
func (c *Cluster) Fail(n *Node, dur time.Duration) {
	// A node mid-cold-start has no device to fail; a released node is out of
	// the fleet; a revoked node is already on its way out and must not pick
	// up a recovery timer that would resurrect it after its release (the
	// revocation deadline, not the failure window, decides its end).
	if n.Device == nil || n.released || n.revoked {
		return
	}
	wasFailed := n.Device.Failed()
	if until := c.eng.Now() + dur; until > n.failUntil {
		n.failUntil = until
	}
	n.Device.Fail()
	if !wasFailed {
		c.transition(telemetry.NodeFailed, n)
	}
	c.eng.Schedule(dur, func() {
		// A later overlapping Fail moved the recovery time; let its own
		// timer do the recovering. A node revoked during the outage stays
		// down: its revocation deadline already released it (or is about
		// to), and recovering would resurrect a node the fleet let go.
		// (Released-but-unrevoked nodes keep the historical recovery event;
		// release froze their billing, so nothing re-bills.)
		if n.revoked || c.eng.Now() < n.failUntil || !n.Device.Failed() {
			return
		}
		n.Device.Recover()
		c.transition(telemetry.NodeRecovered, n)
	})
}

// clampDiscount bounds a spot discount to [0, 1): a full (or larger)
// discount would make nodes free and break billing reconciliation.
func clampDiscount(d float64) float64 {
	if d < 0 || d != d {
		return 0
	}
	if d >= 1 {
		return 0.99
	}
	return d
}

// Revoke delivers a spot-revocation notice: the node is marked revoked
// immediately (schedulers observe Node.Revoked and stop routing work to it,
// so in-flight jobs drain), and when the notice expires whatever is still
// running fails and the node is released. Unlike Fail, revocation is
// permanent — the node never recovers, and a failure window overlapping the
// notice cannot resurrect it. Revoking a released or already-revoked node is
// a no-op.
func (c *Cluster) Revoke(n *Node, notice time.Duration) {
	if n.released || n.revoked {
		return
	}
	n.revoked = true
	c.transition(telemetry.NodeRevoked, n)
	c.eng.Schedule(notice, func() {
		if n.released {
			return
		}
		if n.Device != nil && !n.Device.Failed() {
			// Kill the stragglers that did not drain in time. This is the
			// revocation itself, not a node failure: no NodeFailed event, so
			// failure accounting stays reconciled against injected failures.
			n.Device.Fail()
		}
		c.Release(n)
	})
}

// Nodes returns every node ever acquired, in acquisition order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// ActiveNodes returns the currently held nodes.
func (c *Cluster) ActiveNodes() []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if !n.released {
			out = append(out, n)
		}
	}
	return out
}

// TotalCost returns the dollars spent on all nodes up to now: the paper's
// "total weighted cost ... according to the time spent using each type of
// compute node".
func (c *Cluster) TotalCost() float64 {
	now := c.eng.Now()
	total := 0.0
	for _, n := range c.nodes {
		total += n.Rate() * n.heldFor(now).Seconds()
	}
	return total
}

// CostByKind splits TotalCost between CPU and GPU nodes.
func (c *Cluster) CostByKind() (cpu, gpu float64) {
	now := c.eng.Now()
	for _, n := range c.nodes {
		cost := n.Rate() * n.heldFor(now).Seconds()
		if n.Spec.IsGPU() {
			gpu += cost
		} else {
			cpu += cost
		}
	}
	return cpu, gpu
}

// EnergyWh returns the total energy consumed in watt-hours: each node draws
// idle power while held plus (peak-idle) scaled by device busy time. Nodes
// still in VM launch (no device yet) draw idle power.
func (c *Cluster) EnergyWh() float64 {
	now := c.eng.Now()
	joulesPerWh := 3600.0
	total := 0.0
	for _, n := range c.nodes {
		held := n.heldFor(now).Seconds()
		total += n.Spec.IdlePowerW * held / joulesPerWh
		if n.Device != nil {
			busy := n.Device.BusyTime().Seconds()
			total += (n.Spec.PeakPowerW - n.Spec.IdlePowerW) * busy / joulesPerWh
		}
	}
	return total
}

// AvgPowerW returns mean power draw over the run so far (total energy over
// wall time) — the paper's Fig. 7b metric before normalization.
func (c *Cluster) AvgPowerW() float64 {
	now := c.eng.Now().Seconds()
	if now <= 0 {
		return 0
	}
	return c.EnergyWh() * 3600 / now
}

// HeldBySpec returns, per node-type name, the total time nodes of that type
// were held — the residency breakdown behind the weighted cost.
func (c *Cluster) HeldBySpec() map[string]time.Duration {
	now := c.eng.Now()
	out := make(map[string]time.Duration)
	for _, n := range c.nodes {
		out[n.Spec.Name] += n.heldFor(now)
	}
	return out
}

// Utilization returns the busy-time fraction of held time, aggregated over
// all nodes of the given kind that ever got a device. It returns 0 when no
// such node exists (the paper marks these comparisons "not applicable").
func (c *Cluster) Utilization(kind hardware.Kind) float64 {
	now := c.eng.Now()
	var busy, held time.Duration
	for _, n := range c.nodes {
		if n.Spec.Kind != kind || n.Device == nil {
			continue
		}
		busy += n.Device.BusyTime()
		held += n.heldFor(now)
	}
	if held <= 0 {
		return 0
	}
	return float64(busy) / float64(held)
}
