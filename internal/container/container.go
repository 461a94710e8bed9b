// Package container models serving-container lifecycles on a worker node:
// cold starts (seconds of boot latency before a container can serve), warm
// reuse, background pre-warming (the predictive autoscaler's tool), and the
// paper's delayed-termination keep-alive policy, under which surplus warm
// containers are only terminated after an extended idle period (~10
// minutes) — the mechanism behind the paper's "up to 98% fewer cold starts"
// claim.
package container

import (
	"time"

	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Cold-start latencies by node class: GPU containers must also load model
// weights onto the device.
const (
	CPUColdStart = 2 * time.Second
	GPUColdStart = 4 * time.Second
	// DefaultKeepAlive is the paper's delayed-termination window.
	DefaultKeepAlive = 10 * time.Minute
)

// Pool tracks the containers of one model on one node.
type Pool struct {
	eng       *sim.Engine
	coldStart time.Duration
	keepAlive time.Duration
	timerFn   func()    // bound once; the keep-alive timer's callback
	timer     sim.Timer // the pool's one keep-alive timer, armed while containers idle

	// Sink, when set, receives container lifecycle events (waits, boots,
	// pre-warms, reaps) labelled with NodeID/Spec/Tenant. A nil Sink costs
	// one branch per transition.
	Sink   telemetry.Sink
	NodeID int
	Spec   string
	Tenant int

	// Check, when set, receives a counter snapshot after every mutation and
	// asserts the container-lifecycle algebra. A nil Check costs one branch
	// per transition.
	Check *invariant.Checker

	idle     []idleEntry     // one entry per idle container, ascending since; LIFO reuse
	recent   []time.Duration // distinct idle-push instants of the last millisecond, ascending
	busy     int
	starting int // background pre-warms in flight
	booting  int // dedicated synchronous cold boots in flight

	waiters []func() // FIFO claims waiting for a container

	boots      uint64 // all container boots (pre-warm + synchronous)
	syncColds  uint64 // boots serialized into a request
	reuses     uint64
	warmAdded  uint64 // containers injected already-warm via AddWarm
	terminated uint64
}

// idleEntry is one idle container: when it went idle, and the instant its
// keep-alive is first checked (see checkInstant).
type idleEntry struct {
	since, check time.Duration
}

// NewPool creates a pool with the given cold-start latency and keep-alive
// window. keepAlive == 0 means containers terminate the moment they go idle
// (the paper's scale-down-immediately baseline).
func NewPool(eng *sim.Engine, coldStart, keepAlive time.Duration) *Pool {
	p := &Pool{eng: eng, coldStart: coldStart, keepAlive: keepAlive}
	p.timerFn = p.onTimer
	return p
}

// ColdStart is the boot latency of this pool's containers — the natural
// lead time for predictive pre-warming (ordering further ahead procures for
// traffic the boot cannot beat anyway).
func (p *Pool) ColdStart() time.Duration { return p.coldStart }

// emit sends one pool lifecycle event; call sites guard Sink != nil.
func (p *Pool) emit(kind telemetry.Kind, n int, detail string) {
	e := telemetry.Ev(p.eng.Now(), kind)
	e.Node = p.NodeID
	e.Spec = p.Spec
	e.Tenant = p.Tenant
	e.N = n
	e.Detail = detail
	p.Sink.Event(e)
}

// checkNow hands the current counters to the invariant checker; call sites
// guard Check != nil. The snapshot reads the fields directly (no reap) so
// checking never perturbs the pool it is checking.
func (p *Pool) checkNow() {
	p.Check.Pool(p.eng.Now(), p.NodeID, p.Tenant, p.counts())
}

// counts is the pool's counter snapshot, read without reaping.
func (p *Pool) counts() invariant.PoolCounts {
	return invariant.PoolCounts{
		Idle: len(p.idle), Busy: p.busy, Starting: p.starting,
		Booting: p.booting, Waiting: len(p.waiters),
		Boots: p.boots, SyncColds: p.syncColds,
		WarmAdded: p.warmAdded, Terminated: p.terminated,
	}
}

// Idle returns the number of warm idle containers.
func (p *Pool) Idle() int { p.reap(); return len(p.idle) }

// Busy returns the number of containers currently serving a job.
func (p *Pool) Busy() int { return p.busy }

// Total returns warm (idle+busy) plus starting/booting containers.
func (p *Pool) Total() int {
	p.reap()
	return len(p.idle) + p.busy + p.starting + p.booting
}

// Waiting returns the number of claims waiting for a container.
func (p *Pool) Waiting() int { return len(p.waiters) }

// Boots returns the number of container boots (cold starts) so far, whether
// pre-warmed or synchronous.
func (p *Pool) Boots() uint64 { return p.boots }

// SyncColdStarts returns the boots that were serialized into a request.
func (p *Pool) SyncColdStarts() uint64 { return p.syncColds }

// Reuses returns how many acquisitions were served by a warm container.
func (p *Pool) Reuses() uint64 { return p.reuses }

// Terminated returns containers reaped by the keep-alive policy.
func (p *Pool) Terminated() uint64 { p.reap(); return p.terminated }

// WarmAdded returns containers injected already-warm via AddWarm.
func (p *Pool) WarmAdded() uint64 { return p.warmAdded }

// AddWarm injects n already-warm idle containers without boot latency or a
// cold-start charge. Experiments use it to start runs with the system
// already serving, as the paper's deployments were.
func (p *Pool) AddWarm(n int) {
	for i := 0; i < n; i++ {
		p.warmAdded++
		p.pushIdle()
	}
	if p.Check != nil {
		p.checkNow()
	}
}

// Ensure pre-warms containers in the background until Total() >= n. The
// boots complete after the cold-start latency without blocking any request
// (the predictive and reactive scale-up paths).
func (p *Pool) Ensure(n int) { p.EnsureWithin(n, p.coldStart) }

// EnsureWithin pre-warms containers like Ensure but with a custom readiness
// delay — used when container spawning overlaps hardware procurement
// (Algorithm 1 spawns containers on the newly procured node in the
// background and only then reroutes), leaving just a short tail of the boot
// exposed.
func (p *Pool) EnsureWithin(n int, d time.Duration) {
	p.reap()
	started := 0
	for p.Total() < n {
		p.starting++
		p.boots++
		started++
		p.eng.Schedule(d, func() {
			p.starting--
			p.pushIdle()
			if p.Check != nil {
				p.checkNow()
			}
		})
	}
	if started > 0 && p.Sink != nil {
		p.emit(telemetry.ContainerPrewarm, started, "")
	}
	if p.Check != nil {
		p.checkNow()
	}
}

// Acquire claims a container for a job. If a warm idle container exists the
// returned delay is 0; otherwise a synchronous cold start is charged and the
// delay is the cold-start latency (the caller serializes it into the
// request). Either way the container is busy afterwards; pair with Release.
func (p *Pool) Acquire() (delay time.Duration) {
	p.reap()
	if n := len(p.idle); n > 0 {
		p.idle = p.idle[:n-1] // LIFO: keep cold candidates aging
		p.busy++
		p.reuses++
		if p.Check != nil {
			p.checkNow()
		}
		return 0
	}
	p.busy++
	p.boots++
	p.syncColds++
	if p.Sink != nil {
		p.emit(telemetry.ContainerBoot, 1, "sync")
	}
	if p.Check != nil {
		p.checkNow()
	}
	return p.coldStart
}

// AcquireOrWait claims a container for a job, invoking ready exactly once
// when one is available: immediately for a warm idle container; when a
// pre-warming or busy container frees if the pool is expected to satisfy the
// claim soon; otherwise after a dedicated synchronous cold boot (counted as
// a request-blocking cold start). The caller observes the startup latency as
// the delay until ready fires. Pair with Release.
func (p *Pool) AcquireOrWait(ready func()) {
	p.reap()
	if n := len(p.idle); n > 0 {
		p.idle = p.idle[:n-1]
		p.busy++
		p.reuses++
		if p.Check != nil {
			p.checkNow()
		}
		ready()
		return
	}
	// Each starting or busy container can absorb one waiting claim; beyond
	// that the pool must grow.
	if len(p.waiters) < p.starting+p.busy {
		if p.Sink != nil {
			p.emit(telemetry.ContainerWait, len(p.waiters)+1, "")
		}
		p.waiters = append(p.waiters, ready)
		if p.Check != nil {
			p.checkNow()
		}
		return
	}
	if p.Sink != nil {
		p.emit(telemetry.ContainerBoot, 1, "sync")
	}
	p.booting++
	p.boots++
	p.syncColds++
	if p.Check != nil {
		p.checkNow()
	}
	p.eng.Schedule(p.coldStart, func() {
		p.booting--
		p.busy++
		if p.Check != nil {
			p.checkNow()
		}
		ready()
	})
}

// Release returns a busy container to the warm pool, handing it straight to
// the oldest waiting claim if any (or terminating it immediately under
// keepAlive == 0).
func (p *Pool) Release() {
	if p.busy <= 0 {
		panic("container: Release without matching Acquire")
	}
	p.busy--
	if p.serveWaiter() {
		if p.Check != nil {
			p.checkNow()
		}
		return
	}
	if p.keepAlive <= 0 {
		p.terminated++
		if p.Check != nil {
			p.checkNow()
		}
		return
	}
	p.pushIdle()
	if p.Check != nil {
		p.checkNow()
	}
}

// serveWaiter hands a free container to the oldest waiting claim.
func (p *Pool) serveWaiter() bool {
	if len(p.waiters) == 0 {
		return false
	}
	ready := p.waiters[0]
	copy(p.waiters, p.waiters[1:])
	p.waiters[len(p.waiters)-1] = nil
	p.waiters = p.waiters[:len(p.waiters)-1]
	p.busy++
	p.reuses++
	ready()
	return true
}

// pushIdle hands a free container to the oldest waiting claim or makes it
// idle, arming the keep-alive timer if none is armed. The timer is armed
// whenever containers idle (onTimer re-arms it), so an unarmed timer means
// the new entry is the only one.
func (p *Pool) pushIdle() {
	if p.serveWaiter() {
		return
	}
	now := p.eng.Now()
	if p.keepAlive <= 0 {
		p.idle = append(p.idle, idleEntry{since: now})
		return
	}
	p.idle = append(p.idle, idleEntry{since: now, check: p.checkInstant(now)})
	if !p.timer.Active() {
		p.timer = p.eng.ScheduleAt(p.idle[0].check, p.timerFn)
	}
}

// checkInstant records an idle push at now and returns the instant the
// keep-alive policy first looks at the container pushed: one millisecond
// past the keep-alive of the earliest idle push in the last millisecond.
// That is when a reap event scheduled per push (keepAlive+1ms ahead) would
// first have removed it: an event owed by a push up to 1ms earlier fires
// that much sooner and already finds it expired. Pinning timer reaps to
// these instants keeps every ContainerReaped event and checker snapshot
// where per-push scheduling put them, with one queued event per pool.
func (p *Pool) checkInstant(now time.Duration) time.Duration {
	cut := 0
	for cut < len(p.recent) && p.recent[cut] < now-time.Millisecond {
		cut++
	}
	if cut > 0 {
		p.recent = p.recent[:copy(p.recent, p.recent[cut:])]
	}
	if n := len(p.recent); n == 0 || p.recent[n-1] != now {
		p.recent = append(p.recent, now)
	}
	return p.recent[0] + p.keepAlive + time.Millisecond
}

// onTimer fires the keep-alive timer: reap, then re-arm for the oldest idle
// container. Check instants ascend with idle-push time, and the oldest entry
// only ever gets younger, so the timer is never later than the instant it
// stands for; firing early reaps nothing, which is unobservable.
func (p *Pool) onTimer() {
	p.reap()
	if len(p.idle) > 0 {
		p.timer = p.eng.ScheduleAt(p.idle[0].check, p.timerFn)
	}
}

// reap terminates idle containers whose keep-alive window has expired.
// Entries ascend by idle time, so the expired ones are a prefix.
func (p *Pool) reap() {
	if p.keepAlive <= 0 {
		return
	}
	now := p.eng.Now()
	reaped := 0
	for reaped < len(p.idle) && now-p.idle[reaped].since >= p.keepAlive {
		reaped++
	}
	if reaped == 0 {
		return
	}
	p.idle = p.idle[:copy(p.idle, p.idle[reaped:])]
	p.terminated += uint64(reaped)
	if p.Sink != nil {
		p.emit(telemetry.ContainerReaped, reaped, "")
	}
	if p.Check != nil {
		p.checkNow()
	}
}
