package sim

import (
	"math/rand"
	"testing"
	"time"
)

// This file keeps the engine's previous priority queue — a pointer-based
// binary heap of *refEvent — as a reference implementation, and asserts the
// arena-backed 4-ary heap pops events in the identical order. Because
// (at, seq) is a strict total order (seq is unique per engine), any correct
// priority queue must produce exactly one pop order; this test is the
// executable form of that argument (DESIGN.md §9), in the same spirit as PR
// 3's fan-out probing reference.

type refEvent struct {
	at        time.Duration
	seq       uint64
	index     int
	cancelled bool
}

// refHeap is the historical binary heap: textbook sift-up/sift-down over a
// slice of pointers, ordered by (at, seq).
type refHeap []*refEvent

func (h refHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) push(ev *refEvent) {
	*h = append(*h, ev)
	ev.index = len(*h) - 1
	h.up(ev.index)
}

func (h refHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h refHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h.swap(i, j)
		i = j
	}
}

func (h *refHeap) pop() *refEvent {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		(*h).down(0)
	}
	ev.index = -1
	return ev
}

// refEngine replays a schedule/cancel script against the reference heap and
// records the (at, seq) fire order, skipping cancelled events at pop time
// exactly like the engine does.
type refEngine struct {
	now  time.Duration
	seq  uint64
	heap refHeap
}

func (e *refEngine) schedule(delay time.Duration) *refEvent {
	ev := &refEvent{at: e.now + delay, seq: e.seq}
	e.seq++
	e.heap.push(ev)
	return ev
}

func (e *refEngine) step() (*refEvent, bool) {
	for len(e.heap) > 0 {
		ev := e.heap.pop()
		if ev.cancelled {
			continue
		}
		e.now = ev.at
		return ev, true
	}
	return nil, false
}

// fireRecord is one observed firing, identified by the engine-assigned label
// passed at schedule time plus the clock value it fired at.
type fireRecord struct {
	label int
	at    time.Duration
}

// TestArenaHeapMatchesBinaryReference drives identical randomized
// schedule/cancel/fire scripts through the arena-backed engine and the
// historical binary-heap reference and asserts the fire sequences are
// identical — same labels, same order, same clock values. Scripts mix
// same-instant collisions (FIFO tiebreak), cancellations (including enough to
// trip the engine's lazy compaction), and rescheduling from inside callbacks.
func TestArenaHeapMatchesBinaryReference(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))

		eng := NewEngine()
		ref := &refEngine{}

		var engFired, refFired []fireRecord
		nextLabel := 0

		// Schedule an initial burst, remembering each event's label and
		// handle in both worlds.
		type pair struct {
			timer Timer
			rev   *refEvent
		}
		var live []pair
		schedule := func(delay time.Duration) {
			label := nextLabel
			nextLabel++
			tm := eng.Schedule(delay, func() {
				engFired = append(engFired, fireRecord{label, eng.Now()})
			})
			rev := ref.schedule(delay)
			live = append(live, pair{tm, rev})
			refLabels[rev] = label
		}

		clear(refLabels)
		n := 40 + rng.Intn(120)
		for i := 0; i < n; i++ {
			// Coarse delays force plenty of same-instant collisions.
			schedule(time.Duration(rng.Intn(8)) * time.Millisecond)
		}

		// Cancel a random subset — enough to trip lazy compaction in the
		// engine (which the reference lacks; order must still match).
		for _, p := range live {
			if rng.Float64() < 0.4 {
				p.timer.Cancel()
				p.rev.cancelled = true
			}
		}

		// Interleave stepping with occasional mid-run scheduling and
		// cancellation, mirroring every mutation on both sides.
		for {
			ok1 := eng.Step()
			rev, ok2 := ref.step()
			if ok2 {
				refFired = append(refFired, fireRecord{refLabels[rev], ref.now})
			}
			if ok1 != ok2 {
				t.Fatalf("trial %d: engine done=%v reference done=%v after %d fires",
					trial, !ok1, !ok2, len(engFired))
			}
			if !ok1 {
				break
			}
			if rng.Float64() < 0.3 {
				schedule(time.Duration(rng.Intn(5)) * time.Millisecond)
			}
		}

		if len(engFired) != len(refFired) {
			t.Fatalf("trial %d: engine fired %d events, reference fired %d",
				trial, len(engFired), len(refFired))
		}
		for i := range engFired {
			if engFired[i] != refFired[i] {
				t.Fatalf("trial %d: fire %d differs: engine %+v reference %+v",
					trial, i, engFired[i], refFired[i])
			}
		}
	}
}

// refLabels maps reference events to their schedule-order labels; package
// scope so the closure above stays simple, reset per trial.
var refLabels = map[*refEvent]int{}

// TestArenaHeapMatchesReferenceAbsoluteTimes exercises ScheduleAt with
// mid-callback scheduling at the *current* instant — the same-instant FIFO
// case where a wrong tiebreak would fire a new event before already-queued
// ones.
func TestArenaHeapMatchesReferenceAbsoluteTimes(t *testing.T) {
	eng := NewEngine()
	ref := &refEngine{}
	var engOrder, refOrder []int

	// Engine side: event 0 at 5ms schedules event 2 at the same instant;
	// event 1 was already queued at 5ms and must fire first.
	eng.Schedule(5*time.Millisecond, func() {
		engOrder = append(engOrder, 0)
		eng.ScheduleAt(eng.Now(), func() { engOrder = append(engOrder, 2) })
	})
	eng.Schedule(5*time.Millisecond, func() { engOrder = append(engOrder, 1) })
	eng.RunAll()

	// Reference side, replaying the same script shape.
	r0 := ref.schedule(5 * time.Millisecond)
	r1 := ref.schedule(5 * time.Millisecond)
	refLabels2 := map[*refEvent]int{r0: 0, r1: 1}
	for {
		rev, ok := ref.step()
		if !ok {
			break
		}
		label := refLabels2[rev]
		refOrder = append(refOrder, label)
		if label == 0 {
			r2 := ref.schedule(0)
			refLabels2[r2] = 2
		}
	}

	if len(engOrder) != len(refOrder) {
		t.Fatalf("fire counts differ: engine %v reference %v", engOrder, refOrder)
	}
	for i := range engOrder {
		if engOrder[i] != refOrder[i] {
			t.Fatalf("order differs at %d: engine %v reference %v", i, engOrder, refOrder)
		}
	}
}

// tickWorld is one side of the ticker reference test: the engine, with
// periodic ticks through Every, or the reference heap, with the same ticks
// as events that reschedule themselves first thing in their callback (how
// periodic work was written before Every existed).
type tickWorld interface {
	now() time.Duration
	schedule(delay time.Duration, fn func()) (cancel func())
	every(interval time.Duration, again func() bool, fn func())
	step() bool
	run(until time.Duration)
}

type engineWorld struct {
	eng         *Engine
	compactions int // cancels that shrank the heap: lazy compaction ran
}

func (w *engineWorld) now() time.Duration { return w.eng.Now() }

func (w *engineWorld) schedule(delay time.Duration, fn func()) func() {
	tm := w.eng.Schedule(delay, fn)
	return func() {
		n := len(w.eng.heap)
		tm.Cancel()
		if len(w.eng.heap) < n {
			w.compactions++
		}
	}
}

func (w *engineWorld) every(interval time.Duration, again func() bool, fn func()) {
	w.eng.Every(interval, again, fn)
}

func (w *engineWorld) step() bool              { return w.eng.Step() }
func (w *engineWorld) run(until time.Duration) { w.eng.Run(until) }

// refWorld runs callbacks over refEngine; refEvent carries no callback, so
// they are kept beside it.
type refWorld struct {
	ref refEngine
	fns map[*refEvent]func()
}

func (w *refWorld) now() time.Duration { return w.ref.now }

func (w *refWorld) schedule(delay time.Duration, fn func()) func() {
	ev := w.ref.schedule(delay)
	w.fns[ev] = fn
	return func() { ev.cancelled = true }
}

func (w *refWorld) every(interval time.Duration, again func() bool, fn func()) {
	var tick func()
	tick = func() {
		if again() {
			w.schedule(interval, tick)
		}
		fn()
	}
	w.schedule(interval, tick)
}

func (w *refWorld) step() bool {
	ev, ok := w.ref.step()
	if ok {
		fn := w.fns[ev]
		delete(w.fns, ev)
		fn()
	}
	return ok
}

func (w *refWorld) run(until time.Duration) {
	for len(w.ref.heap) > 0 {
		if top := w.ref.heap[0]; top.cancelled {
			w.ref.heap.pop()
			continue
		} else if top.at > until {
			break
		}
		w.step()
	}
	w.ref.now = max(w.ref.now, until)
}

// runMarker labels the clock reading recorded after each bounded run.
const runMarker = -1000

// tickScript drives one randomized script against w and returns what fired.
// Both worlds get an identically seeded rng, and callbacks draw from it, so
// the scripts stay identical exactly as long as the fire orders do.
func tickScript(w tickWorld, rng *rand.Rand) []fireRecord {
	var fired []fireRecord
	var cancels []func()
	label := 0
	oneShot := func(delay time.Duration) {
		l := label
		label++
		cancels = append(cancels, w.schedule(delay, func() {
			fired = append(fired, fireRecord{l, w.now()})
		}))
	}

	// Tickers at coarse intervals, so their instants collide with each
	// other and with one-shots. Each stops (again turns false) after its
	// budget of fires, mid-run; its bodies schedule zero-delay and short
	// one-shots from inside the tick.
	type cadence struct{ start, interval time.Duration }
	var ticks []cadence
	for i := range 1 + rng.Intn(3) {
		l := -1 - i
		interval := time.Duration(1+rng.Intn(4)) * time.Millisecond
		budget, n := 5+rng.Intn(60), 0
		ticks = append(ticks, cadence{w.now(), interval})
		w.every(interval, func() bool { n++; return n < budget }, func() {
			fired = append(fired, fireRecord{l, w.now()})
			if rng.Float64() < 0.5 {
				oneShot(0)
			}
			if rng.Float64() < 0.3 {
				oneShot(time.Duration(rng.Intn(4)) * time.Millisecond)
			}
		})
	}
	for range 40 + rng.Intn(120) {
		oneShot(time.Duration(rng.Intn(8)) * time.Millisecond)
	}
	// Enough cancels to trip the engine's lazy compaction.
	frac := 0.3 + 0.4*rng.Float64()
	for _, c := range cancels {
		if rng.Float64() < frac {
			c()
		}
	}

	for steps := 0; steps < 100000; steps++ {
		if rng.Float64() < 0.2 {
			// A bounded run whose bound lands exactly on one of the ticks.
			c := ticks[rng.Intn(len(ticks))]
			k := (w.now()-c.start)/c.interval + 1 + time.Duration(rng.Intn(3))
			w.run(c.start + k*c.interval)
			fired = append(fired, fireRecord{runMarker, w.now()})
		} else if !w.step() {
			break
		}
		if rng.Float64() < 0.2 {
			oneShot(time.Duration(rng.Intn(5)) * time.Millisecond)
		}
		if rng.Float64() < 0.1 {
			cancels[rng.Intn(len(cancels))]()
		}
	}
	return fired
}

// TestTickersMatchSelfReschedulingReference drives identical randomized
// scripts through Every tickers and through the binary reference heap with
// the same ticks as self-rescheduling events, and asserts identical fire
// sequences: same labels, same order, same clock values, same clock after
// every bounded Run. Scripts mix one-shots colliding with ticks at the same
// instant, zero-delay events scheduled from inside a tick, enough cancels to
// trip compaction, Run bounds landing exactly on a tick, and tickers whose
// again turns false mid-run.
func TestTickersMatchSelfReschedulingReference(t *testing.T) {
	compacted := 0
	for trial := 0; trial < 60; trial++ {
		seed := int64(5000 + trial)
		ew := &engineWorld{eng: NewEngine()}
		rw := &refWorld{fns: map[*refEvent]func(){}}
		got := tickScript(ew, rand.New(rand.NewSource(seed)))
		want := tickScript(rw, rand.New(rand.NewSource(seed)))
		if len(got) != len(want) {
			t.Fatalf("trial %d: engine recorded %d fires, reference %d", trial, len(got), len(want))
		}
		ticks, runs := 0, 0
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fire %d differs: engine %+v reference %+v", trial, i, got[i], want[i])
			}
			switch l := got[i].label; {
			case l == runMarker:
				runs++
			case l < 0:
				ticks++
			}
		}
		if fires := uint64(len(got) - runs); ew.eng.Fired() != fires {
			t.Fatalf("trial %d: Fired() = %d, want %d", trial, ew.eng.Fired(), fires)
		}
		if ticks == 0 || runs == 0 {
			t.Fatalf("trial %d: %d ticks and %d bounded runs; the script lost coverage", trial, ticks, runs)
		}
		if len(ew.eng.tickers) != 0 {
			t.Fatalf("trial %d: %d tickers still live after the queue drained", trial, len(ew.eng.tickers))
		}
		if ew.compactions > 0 {
			compacted++
		}
	}
	if compacted < 10 {
		t.Fatalf("only %d of 60 trials compacted; the scripts no longer cover compaction", compacted)
	}
}
