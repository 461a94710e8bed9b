package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndStep(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	e.Schedule(3*time.Millisecond, func() { fired = append(fired, e.Now()) })
	e.Schedule(time.Millisecond, func() { fired = append(fired, e.Now()) })
	e.Schedule(2*time.Millisecond, func() { fired = append(fired, e.Now()) })

	for e.Step() {
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (same-instant events must be FIFO)", i, got, i)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.Schedule(time.Second, func() {
		times = append(times, e.Now())
		e.Schedule(time.Second, func() {
			times = append(times, e.Now())
		})
		// Zero-delay event from inside a callback fires at the same instant,
		// after currently queued same-instant events.
		e.Schedule(0, func() { times = append(times, e.Now()) })
	})
	e.RunAll()
	want := []time.Duration{time.Second, time.Second, 2 * time.Second}
	if len(times) != 3 {
		t.Fatalf("got %d events, want 3", len(times))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(time.Millisecond, func() {})
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	ev.Cancel()
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", e.Fired())
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	var evs []Timer
	for i := 0; i < 5; i++ {
		i := i
		evs = append(evs, e.Schedule(time.Duration(i+1)*time.Millisecond, func() { got = append(got, i) }))
	}
	evs[2].Cancel()
	e.RunAll()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() { count++ })
	}
	e.Run(5 * time.Second) // events at exactly 5s included
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", e.Now())
	}
	e.Run(20 * time.Second)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	// No events at 20s; clock still advances to the until bound.
	if e.Now() != 20*time.Second {
		t.Fatalf("Now() = %v, want 20s", e.Now())
	}
}

func TestRunUntilDoesNotFireLater(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(2*time.Second, func() { fired = true })
	e.Every(3*time.Second, func() bool { return true }, func() { fired = true })
	e.Run(time.Second)
	if fired {
		t.Fatal("event after 'until' fired")
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2 (one event, one ticker)", e.Pending())
	}
}

// A ticker occupies the queue while it keeps re-arming and leaves it when
// again reports false; every tick counts in Fired, the last one included.
func TestEveryPendingAndFired(t *testing.T) {
	e := NewEngine()
	var at []time.Duration
	n := 0
	e.Every(10*time.Millisecond, func() bool { n++; return n < 3 }, func() { at = append(at, e.Now()) })
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d with one ticker armed, want 1", e.Pending())
	}
	e.Run(25 * time.Millisecond)
	if e.Pending() != 1 || e.Fired() != 2 {
		t.Fatalf("after two ticks: Pending() = %d, Fired() = %d, want 1 and 2", e.Pending(), e.Fired())
	}
	e.RunAll()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if fmt.Sprint(at) != fmt.Sprint(want) {
		t.Fatalf("ticks at %v, want %v", at, want)
	}
	if e.Pending() != 0 || e.Fired() != 3 {
		t.Fatalf("after the last tick: Pending() = %d, Fired() = %d, want 0 and 3", e.Pending(), e.Fired())
	}
}

func TestEveryNonPositiveIntervalPanics(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Millisecond} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "interval "+d.String()) {
					t.Fatalf("Every(%v) panicked with %q, want a message naming the interval", d, msg)
				}
			}()
			NewEngine().Every(d, func() bool { return true }, func() {})
		}()
	}
}

// A firing ticker — its again check and re-arm included — allocates
// nothing, alone and interleaved with one-shot events.
func TestEveryAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	again := func() bool { return true }
	e.Every(time.Millisecond, again, fn)
	e.Every(3*time.Millisecond, again, fn)
	for i := 0; i < 128; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	e.Run(time.Second)
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs > 0 {
		t.Fatalf("a tick allocates %.2f objects/op, want 0", allocs)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(500*time.Microsecond, fn)
		e.Run(e.Now() + time.Millisecond)
	})
	if allocs > 0 {
		t.Fatalf("ticks mixed with one-shots allocate %.2f objects/op, want 0", allocs)
	}
}

// Property: events always fire in nondecreasing time order, regardless of
// insertion order, and every scheduled (non-cancelled) event fires.
func TestEventOrderProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		e := NewEngine()
		var fired []time.Duration
		for _, d := range delaysMs {
			d := time.Duration(d) * time.Millisecond
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		if len(fired) != len(delaysMs) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// Multiset equality with the inputs.
		want := make([]time.Duration, len(delaysMs))
		for i, d := range delaysMs {
			want[i] = time.Duration(d) * time.Millisecond
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving Step and nested Schedule keeps the clock monotone.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		last := time.Duration(-1)
		ok := true
		var spawn func()
		spawn = func() {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
			if e.Fired() < uint64(n) {
				e.Schedule(time.Duration(r.Intn(1000))*time.Microsecond, spawn)
			}
		}
		e.Schedule(0, spawn)
		e.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Stream("trace")
	b := NewRNG(42).Stream("trace")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed+name produced different streams")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	root := NewRNG(42)
	a := root.Stream("a")
	b := root.Stream("b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 'a' and 'b' collided %d/64 times", same)
	}
}

func TestRNGChild(t *testing.T) {
	root := NewRNG(7)
	c1 := root.Child("rep-1")
	c2 := root.Child("rep-2")
	if c1.Seed() == c2.Seed() {
		t.Fatal("children with different names share a seed")
	}
	if c1.Seed() != NewRNG(7).Child("rep-1").Seed() {
		t.Fatal("child derivation not deterministic")
	}
}

func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%64 == 0 {
			for e.Step() {
			}
		}
	}
	e.RunAll()
}

func TestCancelAlreadyFiredIsNoOp(t *testing.T) {
	e := NewEngine()
	fired := 0
	ev := e.Schedule(time.Second, func() { fired++ })
	e.Schedule(2*time.Second, func() { fired++ })
	e.RunAll()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	// Cancelling after the fact must not panic, unfire, or disturb the queue.
	ev.Cancel()
	ev.Cancel()
	if fired != 2 || e.Pending() != 0 {
		t.Fatalf("post-fire Cancel changed state: fired=%d pending=%d", fired, e.Pending())
	}
	// The engine must still schedule and run normally afterwards.
	e.Schedule(time.Second, func() { fired++ })
	e.RunAll()
	if fired != 3 {
		t.Fatalf("fired = %d after post-cancel schedule, want 3", fired)
	}
}

func TestRunUntilFiresEventExactlyAtBound(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Schedule(time.Second, func() { log = append(log, "before") })
	e.Schedule(2*time.Second, func() { log = append(log, "at") })
	e.ScheduleAt(2*time.Second, func() { log = append(log, "at2") })
	e.Schedule(2*time.Second+time.Nanosecond, func() { log = append(log, "after") })

	e.Run(2 * time.Second)
	if got, want := fmt.Sprint(log), "[before at at2]"; got != want {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want exactly 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the 2s+1ns event still queued", e.Pending())
	}
	e.RunAll()
	if got, want := fmt.Sprint(log), "[before at at2 after]"; got != want {
		t.Fatalf("fired %v after RunAll, want %v", got, want)
	}
}

func TestCancelledEventsCompact(t *testing.T) {
	e := NewEngine()
	const n = 64
	timers := make([]Timer, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, e.Schedule(time.Duration(i+1)*time.Second, func() {}))
	}
	if e.Pending() != n {
		t.Fatalf("Pending() = %d, want %d", e.Pending(), n)
	}
	// Cancel just under half: cancelled shells linger in the queue.
	for i := 0; i < n/2; i++ {
		timers[i].Cancel()
	}
	if e.Pending() != n {
		t.Fatalf("Pending() = %d after %d cancels, want %d (lazy)", e.Pending(), n/2, n)
	}
	// One more cancel tips cancelled past half the queue: compaction sweeps
	// them out and Pending shrinks to the live events.
	timers[n/2].Cancel()
	if want := n - n/2 - 1; e.Pending() != want {
		t.Fatalf("Pending() = %d after compaction, want %d", e.Pending(), want)
	}
	// The surviving events still fire, in order.
	fired := 0
	last := time.Duration(-1)
	for e.Step() {
		fired++
		if e.Now() < last {
			t.Fatal("clock went backwards after compaction")
		}
		last = e.Now()
	}
	if want := n - n/2 - 1; fired != want {
		t.Fatalf("fired %d events after compaction, want %d", fired, want)
	}
}

func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	fired := 0
	stale := e.Schedule(time.Second, func() { fired++ })
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// The fired event's struct is back on the free list; the next Schedule
	// reuses it. The stale handle must not be able to cancel the new event.
	fresh := e.Schedule(time.Second, func() { fired++ })
	stale.Cancel()
	if fresh.Active() != true {
		t.Fatal("stale Cancel deactivated a recycled event")
	}
	e.RunAll()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (recycled event must fire)", fired)
	}
}

func TestTimerZeroValueAndAccessors(t *testing.T) {
	var zero Timer
	zero.Cancel() // must not panic
	if zero.Active() {
		t.Fatal("zero Timer reports Active")
	}
	if _, ok := zero.At(); ok {
		t.Fatal("zero Timer reports a fire time")
	}
	e := NewEngine()
	tm := e.Schedule(3*time.Second, func() {})
	if at, ok := tm.At(); !ok || at != 3*time.Second {
		t.Fatalf("At() = %v,%v, want 3s,true", at, ok)
	}
	tm.Cancel()
	if tm.Active() {
		t.Fatal("cancelled timer reports Active")
	}
	if _, ok := tm.At(); ok {
		t.Fatal("cancelled timer reports a fire time")
	}
}

// The schedule→fire cycle must reuse Event structs: steady-state scheduling
// allocates nothing beyond the occasional heap-slice growth.
func TestEventFreeListReuse(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm up: grow the heap backing array and seed the free list.
	for i := 0; i < 128; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, fn)
	}
	e.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Millisecond, fn)
		e.Step()
	})
	if allocs > 0.1 {
		t.Fatalf("schedule+fire allocates %.2f objects/op in steady state, want 0", allocs)
	}
}

// Cancel-heavy churn (the device layer's reschedule pattern) must also be
// allocation-free in steady state.
func TestCancelRescheduleReuse(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	tm := e.Schedule(time.Hour, fn)
	for i := 0; i < 128; i++ {
		tm.Cancel()
		tm = e.Schedule(time.Hour, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Cancel()
		tm = e.Schedule(time.Hour, fn)
	})
	if allocs > 0.1 {
		t.Fatalf("cancel+reschedule allocates %.2f objects/op, want 0", allocs)
	}
}

func BenchmarkEngineCancelReschedule(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	tm := e.Schedule(time.Hour, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Cancel()
		tm = e.Schedule(time.Hour, fn)
	}
}

func TestFIFOUnderInterleavedScheduleAndScheduleAt(t *testing.T) {
	e := NewEngine()
	const at = 5 * time.Second
	var order []int
	// Same instant reached through both APIs, interleaved: firing order must
	// be pure scheduling order regardless of which call queued each event.
	for i := 0; i < 10; i++ {
		i := i
		if i%2 == 0 {
			e.Schedule(at, func() { order = append(order, i) })
		} else {
			e.ScheduleAt(at, func() { order = append(order, i) })
		}
	}
	// An event at the same instant scheduled from inside a callback still
	// fires after everything queued earlier for that instant.
	e.ScheduleAt(at, func() {
		e.ScheduleAt(at, func() { order = append(order, 100) })
	})
	e.RunAll()
	want := "[0 1 2 3 4 5 6 7 8 9 100]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("order %v, want %v", got, want)
	}
	if e.Now() != at {
		t.Fatalf("clock = %v, want %v", e.Now(), at)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestOnAdvanceObservesEachInstantOnce: the advance observer fires once per
// distinct instant (not once per event), before the events at that instant,
// strictly increasing, and once more for the final jump to Run's bound.
func TestOnAdvanceObservesEachInstantOnce(t *testing.T) {
	e := NewEngine()
	var advances []time.Duration
	var fires []time.Duration
	e.SetOnAdvance(func(at time.Duration) {
		// The clock must not have moved yet when the observer runs.
		if e.Now() >= at {
			t.Fatalf("onAdvance(%v) ran with clock already at %v", at, e.Now())
		}
		advances = append(advances, at)
	})
	for _, at := range []time.Duration{ms(10), ms(10), ms(10), ms(25), ms(25), ms(40)} {
		e.ScheduleAt(at, func() { fires = append(fires, e.Now()) })
	}
	e.Run(ms(100))

	want := fmt.Sprint([]time.Duration{ms(10), ms(25), ms(40), ms(100)})
	if got := fmt.Sprint(advances); got != want {
		t.Fatalf("advances %v, want %v", got, want)
	}
	if len(fires) != 6 {
		t.Fatalf("fired %d events, want 6", len(fires))
	}
	if e.Now() != ms(100) {
		t.Fatalf("clock = %v, want %v", e.Now(), ms(100))
	}
}

// TestOnAdvanceNilByDefault: an engine without the observer behaves exactly
// as before (the hook is one nil-check per advance).
func TestOnAdvanceNilByDefault(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(ms(5), func() { fired++ })
	e.Run(ms(10))
	if fired != 1 || e.Now() != ms(10) {
		t.Fatalf("fired=%d now=%v", fired, e.Now())
	}
}
