package container

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// This file keeps the pool's previous keep-alive mechanism — one one-shot
// reap event scheduled keepAlive+1ms ahead on every idle push — as a
// reference implementation, and asserts that the single re-armable timer per
// pool is observably identical to it: the same ContainerReaped events at the
// same instants, the same counter trajectory (the snapshots the invariant
// checker receives) and the same answers to every read. DESIGN.md §9
// ("Keep-alive timers") gives the argument; this is its executable form, in
// the spirit of sim's heap_reference_test.go.

// refPool is the historical pool: idleSince is scanned in full on every
// reap, and pushIdle schedules one reap event per push.
type refPool struct {
	eng       *sim.Engine
	coldStart time.Duration
	keepAlive time.Duration
	Sink      telemetry.Sink
	Check     *invariant.Checker

	idleSince []time.Duration
	busy      int
	starting  int
	booting   int
	waiters   []func()

	boots, syncColds, reuses, warmAdded, terminated uint64
}

func newRefPool(eng *sim.Engine, coldStart, keepAlive time.Duration) *refPool {
	return &refPool{eng: eng, coldStart: coldStart, keepAlive: keepAlive}
}

func (p *refPool) emit(kind telemetry.Kind, n int) {
	e := telemetry.Ev(p.eng.Now(), kind)
	e.N = n
	p.Sink.Event(e)
}

func (p *refPool) counts() invariant.PoolCounts {
	return invariant.PoolCounts{
		Idle: len(p.idleSince), Busy: p.busy, Starting: p.starting,
		Booting: p.booting, Waiting: len(p.waiters),
		Boots: p.boots, SyncColds: p.syncColds,
		WarmAdded: p.warmAdded, Terminated: p.terminated,
	}
}

func (p *refPool) checkNow() { p.Check.Pool(p.eng.Now(), 0, 0, p.counts()) }

func (p *refPool) Idle() int          { p.reap(); return len(p.idleSince) }
func (p *refPool) Terminated() uint64 { p.reap(); return p.terminated }
func (p *refPool) Total() int {
	p.reap()
	return len(p.idleSince) + p.busy + p.starting + p.booting
}

func (p *refPool) AddWarm(n int) {
	for i := 0; i < n; i++ {
		p.warmAdded++
		p.pushIdle()
	}
	p.checkNow()
}

func (p *refPool) EnsureWithin(n int, d time.Duration) {
	p.reap()
	started := 0
	for p.Total() < n {
		p.starting++
		p.boots++
		started++
		p.eng.Schedule(d, func() {
			p.starting--
			p.pushIdle()
			p.checkNow()
		})
	}
	if started > 0 {
		p.emit(telemetry.ContainerPrewarm, started)
	}
	p.checkNow()
}

func (p *refPool) Acquire() time.Duration {
	p.reap()
	if n := len(p.idleSince); n > 0 {
		p.idleSince = p.idleSince[:n-1]
		p.busy++
		p.reuses++
		p.checkNow()
		return 0
	}
	p.busy++
	p.boots++
	p.syncColds++
	p.emit(telemetry.ContainerBoot, 1)
	p.checkNow()
	return p.coldStart
}

func (p *refPool) AcquireOrWait(ready func()) {
	p.reap()
	if n := len(p.idleSince); n > 0 {
		p.idleSince = p.idleSince[:n-1]
		p.busy++
		p.reuses++
		p.checkNow()
		ready()
		return
	}
	if len(p.waiters) < p.starting+p.busy {
		p.emit(telemetry.ContainerWait, len(p.waiters)+1)
		p.waiters = append(p.waiters, ready)
		p.checkNow()
		return
	}
	p.emit(telemetry.ContainerBoot, 1)
	p.booting++
	p.boots++
	p.syncColds++
	p.checkNow()
	p.eng.Schedule(p.coldStart, func() {
		p.booting--
		p.busy++
		p.checkNow()
		ready()
	})
}

func (p *refPool) Release() {
	p.busy--
	if p.serveWaiter() {
		p.checkNow()
		return
	}
	if p.keepAlive <= 0 {
		p.terminated++
		p.checkNow()
		return
	}
	p.pushIdle()
	p.checkNow()
}

func (p *refPool) serveWaiter() bool {
	if len(p.waiters) == 0 {
		return false
	}
	ready := p.waiters[0]
	p.waiters = p.waiters[1:]
	p.busy++
	p.reuses++
	ready()
	return true
}

func (p *refPool) pushIdle() {
	if p.serveWaiter() {
		return
	}
	p.idleSince = append(p.idleSince, p.eng.Now())
	if p.keepAlive > 0 {
		p.eng.Schedule(p.keepAlive+time.Millisecond, p.reap)
	}
}

func (p *refPool) reap() {
	if p.keepAlive <= 0 {
		return
	}
	now := p.eng.Now()
	keep := p.idleSince[:0]
	reaped := 0
	for _, since := range p.idleSince {
		if now-since >= p.keepAlive {
			p.terminated++
			reaped++
		} else {
			keep = append(keep, since)
		}
	}
	p.idleSince = keep
	if reaped > 0 {
		p.emit(telemetry.ContainerReaped, reaped)
		p.checkNow()
	}
}

// poolUnderTest is the API the differential harness exercises on both sides.
type poolUnderTest interface {
	AddWarm(n int)
	EnsureWithin(n int, d time.Duration)
	Acquire() time.Duration
	AcquireOrWait(ready func())
	Release()
	Idle() int
	Total() int
	Terminated() uint64
	counts() invariant.PoolCounts
}

// sinkRecord is the (time, kind, N) projection of one pool event.
type sinkRecord struct {
	at   time.Duration
	kind telemetry.Kind
	n    int
}

type recordSink struct{ recs []sinkRecord }

func (s *recordSink) Event(e telemetry.Event) {
	s.recs = append(s.recs, sinkRecord{e.At, e.Kind, e.N})
}

// snapshot is one step of a pool's counter trajectory: the counters as they
// stood after the event or operation at time at.
type snapshot struct {
	at time.Duration
	pc invariant.PoolCounts
}

// side is one pool under differential test, with everything observable
// about it recorded.
type side struct {
	eng    *sim.Engine
	pool   poolUnderTest
	sink   *recordSink
	check  *invariant.Checker
	held   int     // containers the harness holds busy and must release
	reads  []int64 // answers to Idle/Total/Terminated probes
	forget func()  // optional hook run before every event and operation

	lastAt     time.Duration
	last       invariant.PoolCounts
	trajectory []snapshot
}

func newSide(eng *sim.Engine, pool poolUnderTest, sink *recordSink, check *invariant.Checker) *side {
	s := &side{eng: eng, pool: pool, sink: sink, check: check}
	eng.SetOnFire(func(at time.Duration) {
		s.observe()
		s.lastAt = at
		if s.forget != nil {
			s.forget()
		}
	})
	return s
}

// observe appends the counters to the trajectory if the last event or
// operation changed them. Events that change nothing (the reference's stale
// reap events, the timer's early firings) leave no trace, exactly as they
// leave none in the invariant checker.
func (s *side) observe() {
	if pc := s.pool.counts(); pc != s.last {
		s.trajectory = append(s.trajectory, snapshot{s.lastAt, pc})
		s.last = pc
	}
}

// runTo advances the engine to t; the operation that follows is stamped t.
func (s *side) runTo(t time.Duration) {
	s.eng.Run(t)
	s.observe()
	s.lastAt = t
	if s.forget != nil {
		s.forget()
	}
}

func (s *side) ready() { s.held++ }

// driveDifferential runs one seeded random operation sequence against a
// fresh Pool and refPool and returns the first divergence, or "" if every
// observable matched. forgetRecent clears the Pool's record of recent idle
// pushes before every operation and event, reducing the check instant to
// since+keepAlive+1ms; it exists to show the comparison catches that.
func driveDifferential(seed int64, keepAlive time.Duration, forgetRecent bool) string {
	const coldStart = 2*time.Second + 317*time.Microsecond
	rng := rand.New(rand.NewSource(seed))

	newEng, refEng := sim.NewEngine(), sim.NewEngine()
	np := NewPool(newEng, coldStart, keepAlive)
	rp := newRefPool(refEng, coldStart, keepAlive)
	a := newSide(newEng, np, &recordSink{}, invariant.New())
	b := newSide(refEng, rp, &recordSink{}, invariant.New())
	np.Sink, np.Check = a.sink, a.check
	rp.Sink, rp.Check = b.sink, b.check
	if forgetRecent {
		a.forget = func() { np.recent = np.recent[:0] }
	}
	sides := []*side{a, b}

	window := keepAlive
	if window <= 0 {
		window = 3 * time.Second
	}
	jitter := func(d time.Duration) time.Duration {
		return d + time.Duration(rng.Int63n(int64(time.Millisecond)))
	}
	advance := func() time.Duration {
		switch r := rng.Float64(); {
		case r < 0.45: // sub-millisecond: bursts inside one push window
			return time.Duration(rng.Int63n(int64(900 * time.Microsecond)))
		case r < 0.75:
			return jitter(time.Duration(rng.Int63n(int64(2 * time.Second))))
		case r < 0.9: // straddle an expiry boundary
			return window - 2*time.Millisecond + time.Duration(rng.Int63n(int64(4*time.Millisecond)))
		default:
			return jitter(window + time.Duration(rng.Int63n(int64(window))))
		}
	}

	now := time.Duration(0)
	for op := 0; op < 3000; op++ {
		now += advance()
		for _, s := range sides {
			s.runTo(now)
		}
		r := rng.Float64()
		burst := 1
		if r >= 0.55 && r < 0.7 {
			burst = 2 + rng.Intn(5)
		}
		for k := 0; k < burst; k++ {
			if k > 0 { // burst: releases under 1ms apart, reuse in between
				now += time.Duration(rng.Int63n(int64(700 * time.Microsecond)))
				for _, s := range sides {
					s.runTo(now)
				}
			}
			reuse := k > 0 && rng.Float64() < 0.4
			n := 1 + rng.Intn(3)
			d := jitter(time.Duration(rng.Int63n(int64(3 * time.Second))))
			for _, s := range sides {
				switch {
				case r < 0.05:
					s.pool.AddWarm(n)
				case r < 0.12:
					s.pool.EnsureWithin(s.pool.Total()+n, d)
				case r < 0.3:
					s.pool.Acquire()
					s.held++
				case r < 0.45:
					s.pool.AcquireOrWait(s.ready)
				case r < 0.7:
					if s.held > 0 {
						s.held--
						s.pool.Release()
					}
					if reuse {
						s.pool.AcquireOrWait(s.ready)
					}
				case r < 0.8:
					s.reads = append(s.reads, int64(s.pool.Idle()))
				case r < 0.9:
					s.reads = append(s.reads, int64(s.pool.Total()))
				case r < 0.95:
					s.reads = append(s.reads, int64(s.pool.Terminated()))
				}
				s.observe()
			}
			if msg := compareSides(a, b); msg != "" {
				return fmt.Sprintf("op %d (t=%v): %s", op, now, msg)
			}
		}
	}
	// Drain: let every container expire on both sides with no further
	// operations, so the last reaps come from timers alone.
	now += 2*window + time.Second
	for _, s := range sides {
		s.runTo(now)
	}
	if msg := compareSides(a, b); msg != "" {
		return "after drain: " + msg
	}
	for _, s := range sides {
		if err := s.check.Err(); err != nil {
			return "invariant checker: " + err.Error()
		}
	}
	return ""
}

// compareSides reports the first observable difference between the pools.
func compareSides(a, b *side) string {
	if a.held != b.held {
		return fmt.Sprintf("held %d vs reference %d", a.held, b.held)
	}
	if msg := firstDiff("read", a.reads, b.reads); msg != "" {
		return msg
	}
	if msg := firstDiff("sink record", a.sink.recs, b.sink.recs); msg != "" {
		return msg
	}
	return firstDiff("snapshot", a.trajectory, b.trajectory)
}

func firstDiff[T comparable](what string, got, want []T) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("%s %d: %+v, reference %+v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d %ss, reference %d", len(got), what, len(want))
	}
	return ""
}

var differentialKeepAlives = []time.Duration{0, 3 * time.Second, DefaultKeepAlive}

// TestPoolMatchesPerPushReference drives seeded random operation sequences
// through the single-timer Pool and the per-push reference and asserts every
// observable is identical: the recorded (time, kind, N) sink streams, the
// counter trajectories and every read.
func TestPoolMatchesPerPushReference(t *testing.T) {
	for _, ka := range differentialKeepAlives {
		for seed := int64(1); seed <= 8; seed++ {
			if msg := driveDifferential(seed, ka, false); msg != "" {
				t.Fatalf("keepAlive %v seed %d: %s", ka, seed, msg)
			}
		}
	}
}

// TestDifferentialCatchesNaiveCheckInstant shows the comparison has teeth:
// checking each container at since+keepAlive+1ms, without the 1ms look-back
// over recent pushes, reaps some containers later than per-push scheduling
// did, and the harness must notice.
func TestDifferentialCatchesNaiveCheckInstant(t *testing.T) {
	for _, ka := range differentialKeepAlives[1:] {
		caught := 0
		for seed := int64(1); seed <= 8; seed++ {
			if driveDifferential(seed, ka, true) != "" {
				caught++
			}
		}
		if caught == 0 {
			t.Fatalf("keepAlive %v: no seed distinguished the naive check instant from the reference", ka)
		}
	}
}

// TestKeepAliveQueueStaysConstant asserts the event queue holds O(1) events
// per pool however many release cycles run inside the keep-alive window,
// where per-push scheduling queued one event per release.
func TestKeepAliveQueueStaysConstant(t *testing.T) {
	const pools, cycles = 4, 10000
	eng := sim.NewEngine()
	ref := sim.NewEngine()
	ps := make([]*Pool, pools)
	rs := make([]*refPool, pools)
	for i := range ps {
		ps[i] = NewPool(eng, CPUColdStart, DefaultKeepAlive)
		ps[i].AddWarm(2)
		rs[i] = newRefPool(ref, CPUColdStart, DefaultKeepAlive)
		rs[i].Sink, rs[i].Check = &recordSink{}, invariant.New()
		rs[i].AddWarm(2)
	}
	maxPending := 0
	for c := 0; c < cycles; c++ {
		t := time.Duration(c+1) * 70 * time.Millisecond
		eng.Run(t)
		ref.Run(t)
		for i := range ps {
			ps[i].Acquire()
			ps[i].Release()
			rs[i].Acquire()
			rs[i].Release()
		}
		if n := eng.Pending(); n > maxPending {
			maxPending = n
		}
	}
	if maxPending > pools {
		t.Fatalf("pending events peaked at %d for %d pools, want at most one per pool", maxPending, pools)
	}
	if ref.Pending() < cycles/2 {
		t.Fatalf("reference queued only %d events; the comparison no longer shows the per-push cost", ref.Pending())
	}
}
