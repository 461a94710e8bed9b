// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock (a time.Duration offset from the start
// of the simulation) and a priority queue of events. Events scheduled for the
// same instant fire in the order they were scheduled, which — together with
// seeded random sources (see rng.go) — makes every simulation in this
// repository bit-for-bit reproducible.
//
// Event storage is an index-addressed arena: the queue is a 4-ary min-heap of
// (at, seq, arena index) entries, keys inline so a sift never reads the
// arena, and fired or cancelled slots return to an index free list. Model
// code that schedules and cancels millions of events (the device layer
// re-arms a finish event on every pool membership change) therefore performs
// no per-event allocation at all in steady state — the only allocations are
// the amortized growth of the arena and heap backing arrays. Cancellation is
// handled through generation-checked Timer handles, so a stale handle held
// across slot recycling can never cancel an unrelated event.
//
// Periodic work (Every) never enters the heap: a ticker sits in a short slice
// beside it and takes a fresh seq each time it re-arms, exactly as an event
// that reschedules itself first thing in its callback would. Each step fires
// whichever of the heap top and the tickers is earliest by (at, seq).
//
// Because (at, seq) is a strict total order on events — seq is unique — any
// correct priority queue pops events in exactly one order. The heap's shape
// (4-ary here, binary before) and where a ticker is stored are therefore
// unobservable: fire order, and with it every simulation output, is identical
// for any conforming implementation. sim's tests assert this against the
// previous pointer-based binary heap, with ticks as self-rescheduling events,
// kept as a reference implementation in heap_reference_test.go.
package sim

import (
	"fmt"
	"math"
	"time"
)

// event is one arena slot: a callback bound to a point in virtual time.
// Slots are addressed by index and recycled through the engine's free list;
// model code only ever holds Timer handles. A slot is queued exactly while
// its generation matches the one it was scheduled under: it is recycled
// (and its generation bumped) the moment it leaves the heap.
type event struct {
	at time.Duration
	fn func()

	gen       uint64 // bumped on every recycle; Timer handles check it
	cancelled bool
}

// entry is one heap element: the (at, seq) key kept inline beside the arena
// index, so sifts compare and move entries without touching the arena.
type entry struct {
	at  time.Duration
	seq uint64
	id  int32
}

// before reports whether entry a fires strictly before entry b: the (at, seq)
// total order every conforming priority queue must respect.
func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// ticker is a periodic event kept beside the heap (see Engine.Every). Its
// key (id unused) orders it against queued events exactly as the
// self-rescheduling event it replaces would be ordered.
type ticker struct {
	key      entry
	interval time.Duration
	again    func() bool
	fn       func()
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// valid and inert: Cancel on it is a no-op and Active reports false. A Timer
// outliving its event (fired, cancelled, or recycled into a new event) is
// safe: the generation check turns every operation into a no-op.
type Timer struct {
	eng *Engine
	idx int32
	gen uint64
}

// ev returns the timer's live arena slot, or nil when the timer is inert
// (zero, fired, cancelled, or recycled).
func (t Timer) ev() *event {
	if t.eng == nil {
		return nil
	}
	ev := &t.eng.arena[t.idx]
	if ev.gen != t.gen || ev.cancelled {
		return nil
	}
	return ev
}

// Active reports whether the timer's event is still queued and will fire.
func (t Timer) Active() bool { return t.ev() != nil }

// At returns the virtual time the event fires at; ok is false when the timer
// is inert (zero, fired, cancelled, or recycled).
func (t Timer) At() (at time.Duration, ok bool) {
	ev := t.ev()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired (or was already cancelled, or a zero Timer) is a no-op.
// Cancelled events stay in the queue until their fire time or until a lazy
// compaction sweep reclaims them (see Engine).
func (t Timer) Cancel() {
	ev := t.ev()
	if ev == nil {
		return
	}
	ev.cancelled = true
	ev.fn = nil // release the closure now; the shell fires as a no-op
	t.eng.cancelledN++
	t.eng.maybeCompact()
}

// compactMin is the queue size below which cancelled events are not worth
// sweeping: they drain naturally at their fire time.
const compactMin = 32

// heapArity is the fan-out of the event queue's d-ary heap. Four keeps the
// tree half as deep as a binary heap (fewer cache-missing levels per sift);
// (at, seq) total ordering makes the pop order — and therefore every
// simulation output — identical to the binary heap's.
const heapArity = 4

// never is a Run bound no event can pass: Step fires whatever is next.
const never = time.Duration(math.MaxInt64)

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on one
// goroutine. (Parallelism inside a callback — e.g. Paldia's parallel y-value
// probing — is fine as long as it joins before the callback returns.
// Parallelism *across* engines is likewise fine: engines share nothing.)
type Engine struct {
	now   time.Duration
	seq   uint64
	fired uint64

	// arena is the index-addressed event storage; heap orders the queued
	// slots by their inline (at, seq) keys; free recycles fired/cancelled
	// slots. cancelledN counts the cancelled events still occupying the
	// queue, triggering compaction once they outnumber the live ones.
	arena      []event
	heap       []entry
	free       []int32
	cancelledN int

	// tickers are the periodic events (Every), in no particular order;
	// first indexes the earliest of them by key, -1 when there are none.
	tickers []ticker
	first   int

	// onFire, when set, observes the virtual time of every fired event
	// (invariant checking); nil costs one branch per event.
	onFire func(at time.Duration)

	// onAdvance, when set, observes the clock moving to a strictly later
	// instant, before any event at that instant fires. Unlike onFire it runs
	// once per distinct time, not once per event, and it is allowed to block
	// — the live replay driver sleeps here to map virtual time onto
	// wall-clock time. It must not touch engine state; nil costs one branch
	// per advance.
	onAdvance func(at time.Duration)
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{first: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// SetOnFire installs an observer invoked with the clock value of every fired
// event, before its callback runs. Pass nil to disable (the default).
func (e *Engine) SetOnFire(fn func(at time.Duration)) { e.onFire = fn }

// SetOnAdvance installs an observer invoked with the new clock value every
// time virtual time advances to a strictly later instant — once per instant,
// before the first event there fires, and once more for the final jump to
// Run's bound when no event lands exactly on it. The observer may block
// (wall-clock pacing) but must not mutate the engine or the model. Pass nil
// to disable (the default).
func (e *Engine) SetOnAdvance(fn func(at time.Duration)) { e.onAdvance = fn }

// Fired returns the number of events executed so far, ticks included.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently occupying the queue: the
// heap's entries plus the live tickers. Cancelled events count until they
// are reclaimed — at their fire time, or earlier by the lazy compaction
// sweep once they outnumber live events.
func (e *Engine) Pending() int { return len(e.heap) + len(e.tickers) }

// Schedule queues fn to run after delay. A negative delay panics: model code
// must never schedule into the past.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %v at t=%v", delay, e.now))
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute virtual time t (>= Now).
func (e *Engine) ScheduleAt(t time.Duration, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt %v before now %v", t, e.now))
	}
	id := e.alloc()
	ev := &e.arena[id]
	ev.at = t
	ev.fn = fn
	e.push(entry{at: t, seq: e.seq, id: id})
	e.seq++
	return Timer{eng: e, idx: id, gen: ev.gen}
}

// Every runs fn once per interval, first at Now+interval, for as long as
// again holds. It orders exactly like an event that, each time it fires,
// reschedules itself interval later when again() is true and then calls fn:
// again is asked after the clock reaches the tick and before fn runs, and
// the next tick takes the engine's next seq at that moment. again is a
// predicate: it must not schedule. A non-positive interval panics. A ticker
// cannot be cancelled; it stops when again reports false.
func (e *Engine) Every(interval time.Duration, again func() bool, fn func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive interval %v at t=%v", interval, e.now))
	}
	e.tickers = append(e.tickers, ticker{key: entry{at: e.now + interval, seq: e.seq}, interval: interval, again: again, fn: fn})
	e.seq++
	e.findFirst()
}

// findFirst points first at the earliest ticker, or -1 when none is left.
func (e *Engine) findFirst() {
	e.first = -1
	for i := range e.tickers {
		if e.first < 0 || e.tickers[i].key.before(e.tickers[e.first].key) {
			e.first = i
		}
	}
}

// alloc returns a recycled arena slot's index or extends the arena.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		e.arena[id].cancelled = false
		return id
	}
	e.arena = append(e.arena, event{})
	return int32(len(e.arena) - 1)
}

// recycle returns a dequeued slot to the free list, invalidating any
// outstanding Timer handles to it.
func (e *Engine) recycle(id int32) {
	ev := &e.arena[id]
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, id)
}

// --- 4-ary heap of inline keys -----------------------------------------------

// push adds x to the heap (sift-up with a moving hole: one write per level
// instead of a three-write swap).
func (e *Engine) push(x entry) {
	j := len(e.heap)
	e.heap = append(e.heap, x)
	h := e.heap
	for j > 0 {
		p := (j - 1) / heapArity
		if !x.before(h[p]) {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = x
}

// popMin removes the minimum (root) entry.
func (e *Engine) popMin() {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.down(0, last)
	}
}

// down places x at position i and restores the heap property below it
// (sift-down with a moving hole, scanning up to heapArity children per level
// for the minimum).
func (e *Engine) down(i int, x entry) {
	h := e.heap
	n := len(h)
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		best := c
		end := min(c+heapArity, n)
		for c++; c < end; c++ {
			if h[c].before(h[best]) {
				best = c
			}
		}
		if !h[best].before(x) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = x
}

// reinit restores the heap invariant over arbitrary contents (compaction).
func (e *Engine) reinit() {
	n := len(e.heap)
	if n < 2 {
		return
	}
	for i := (n - 2) / heapArity; i >= 0; i-- {
		e.down(i, e.heap[i])
	}
}

// maybeCompact sweeps cancelled events out of the queue once they outnumber
// the live ones (and the queue is big enough to matter). The heap is rebuilt
// from the surviving events; (at, seq) ordering makes the rebuild
// deterministic.
func (e *Engine) maybeCompact() {
	if len(e.heap) < compactMin || 2*e.cancelledN <= len(e.heap) {
		return
	}
	kept := e.heap[:0]
	for _, x := range e.heap {
		if e.arena[x.id].cancelled {
			e.recycle(x.id)
			continue
		}
		kept = append(kept, x)
	}
	e.heap = kept
	e.cancelledN = 0
	e.reinit()
}

// advance moves the clock to at for one firing and counts it.
func (e *Engine) advance(at time.Duration) {
	if at > e.now && e.onAdvance != nil {
		e.onAdvance(at)
	}
	e.now = at
	e.fired++
	if e.onFire != nil {
		e.onFire(at)
	}
}

// next fires the earliest of the heap top and the tickers by (at, seq),
// provided it is due at or before until, and reports whether it fired one.
// Cancelled events reaching the heap top are reclaimed on the way, even past
// until, so what a bounded Run leaves queued starts with a live event.
func (e *Engine) next(until time.Duration) bool {
	for {
		k := e.first
		if len(e.heap) > 0 && (k < 0 || e.heap[0].before(e.tickers[k].key)) {
			top := e.heap[0]
			ev := &e.arena[top.id]
			if ev.cancelled {
				e.popMin()
				e.cancelledN--
				e.recycle(top.id)
				continue
			}
			if top.at > until {
				return false
			}
			e.popMin()
			e.advance(top.at)
			fn := ev.fn
			e.recycle(top.id)
			fn()
			return true
		}
		if k < 0 || e.tickers[k].key.at > until {
			return false
		}
		t := &e.tickers[k]
		e.advance(t.key.at)
		fn := t.fn
		if t.again() {
			t.key.at += t.interval
			t.key.seq = e.seq
			e.seq++
		} else {
			last := len(e.tickers) - 1
			e.tickers[k] = e.tickers[last]
			e.tickers[last] = ticker{}
			e.tickers = e.tickers[:last]
		}
		e.findFirst()
		fn()
		return true
	}
}

// Step fires the next pending event, advancing the clock to it. It returns
// false when no events remain.
func (e *Engine) Step() bool { return e.next(never) }

// Run fires events until the queue drains or the clock would pass until.
// Events scheduled exactly at until still fire. The clock ends at
// min(until, time of last event fired) unless an event at until fired, in
// which case it ends at until.
func (e *Engine) Run(until time.Duration) {
	for e.next(until) {
	}
	if e.now < until {
		if e.onAdvance != nil {
			e.onAdvance(until)
		}
		e.now = until
	}
}

// RunAll fires events until none remain.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}
