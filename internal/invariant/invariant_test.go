package invariant

import (
	"math"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/telemetry"
)

// The tests in this file are mutation tests for the checker itself: each law
// family gets (a) a legal scripted sequence of spans, hook calls and bus
// events that must pass clean and (b) a deliberately broken variant that
// must trip exactly that law. A checker that never fires proves nothing.

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// nev builds a node lifecycle event.
func nev(at time.Duration, kind telemetry.Kind, node int, spec string) telemetry.Event {
	e := telemetry.Ev(at, kind)
	e.Node = node
	e.Spec = spec
	return e
}

// job reports a device job transition on node 0, as an admitting device does.
func job(c *Checker, at time.Duration, kind telemetry.Kind, id int64) {
	c.DeviceJob(at, kind, id, 0, true)
}

// assertClean fails unless no law fired.
func assertClean(t *testing.T, c *Checker) {
	t.Helper()
	if err := c.Err(); err != nil {
		t.Fatalf("legal sequence tripped the checker:\n%v", err)
	}
}

// assertLaw fails unless at least one violation of the given family (and no
// violation of any other family) was recorded.
func assertLaw(t *testing.T, c *Checker, law string) {
	t.Helper()
	if c.Total() == 0 {
		t.Fatalf("broken %s law not detected", law)
	}
	for _, v := range c.Violations() {
		if v.Law != law {
			t.Fatalf("expected only %s violations, got %v", law, v)
		}
	}
}

// span returns the span of request req served on job 1 without clones:
// arrived and batched at 0, dispatched at 10ms, queued at 12ms, executing
// 15–40ms, completed at 40ms.
func span(req int64) *telemetry.Span {
	var s telemetry.Span
	s.Reset(req, 0)
	s.Arrived, s.Batched, s.Dispatched, s.Queued = 0, 0, ms(10), ms(12)
	s.ExecStart, s.ExecEnd, s.Completed = ms(15), ms(40), ms(40)
	s.Job, s.Node = 1, 0
	return &s
}

// failedSpan returns the span of request req lost at 20ms before dispatch.
func failedSpan(req int64) *telemetry.Span {
	var s telemetry.Span
	s.Reset(req, 0)
	s.Arrived, s.Batched, s.Completed, s.Failed = 0, 0, ms(20), true
	return &s
}

// playRequest walks one request through the full legal lifecycle on job 1:
// its arrival, the device's job transitions and its span.
func playRequest(c *Checker) {
	c.Arrive()
	job(c, ms(12), telemetry.Queued, 1)
	job(c, ms(15), telemetry.ExecStart, 1)
	job(c, ms(40), telemetry.ExecEnd, 1)
	c.Span(span(1))
}

// --- request-conservation -------------------------------------------------------

func TestConservationCleanLifecycle(t *testing.T) {
	c := New()
	playRequest(c)
	c.Arrive()
	c.Span(failedSpan(2))
	c.CheckResult(ms(50), 2, 1, 0)
	assertClean(t, c)
}

func TestConservationDetectsDoubleArrival(t *testing.T) {
	// Two arrivals counted for the one request the run handed over.
	c := New()
	c.Arrive()
	playRequest(c)
	c.CheckResult(ms(50), 1, 0, 0)
	assertLaw(t, c, LawConservation)
}

func TestConservationDetectsDoubleTermination(t *testing.T) {
	c := New()
	playRequest(c)
	// The request already completed; a second span (here a failure) is a
	// conjured outcome.
	c.Span(failedSpan(1))
	c.CheckResult(ms(50), 1, 1, 0)
	assertLaw(t, c, LawConservation)
}

func TestConservationDetectsCancelBeyondClones(t *testing.T) {
	c := New()
	s := span(1)
	s.Clones, s.Cancelled = 1, 2
	c.Span(s)
	assertLaw(t, c, LawConservation)
}

func TestConservationDistinguishesTenants(t *testing.T) {
	// The same request ID under two tenants is two requests, not a double
	// termination: per-tenant ID spaces are independent.
	c := New()
	for tenant := range 2 {
		c.Arrive()
		s := span(1)
		s.Tenant = tenant
		c.Span(s)
	}
	c.CheckResult(ms(50), 2, 0, 0)
	assertClean(t, c)
}

func TestCheckResultDetectsLostRequest(t *testing.T) {
	// A request that arrives but never terminates — the skipped-bookkeeping
	// mutation (e.g. a dropped failedRq++) the checker exists to catch —
	// whether its span is handed over open or never at all.
	for _, handOver := range []bool{false, true} {
		c := New()
		c.Arrive()
		if handOver {
			var s telemetry.Span
			s.Reset(1, 0)
			s.Arrived, s.Batched = 0, 0
			c.Span(&s)
		}
		c.CheckResult(ms(50), 1, 0, 0)
		assertLaw(t, c, LawConservation)
	}
}

func TestCheckResultDetectsMiscountedFailures(t *testing.T) {
	c := New()
	c.Arrive()
	c.Span(failedSpan(1))
	// Result claims zero failed requests; the spans say one.
	c.CheckResult(ms(50), 1, 0, 0)
	assertLaw(t, c, LawConservation)
}

// --- device jobs ----------------------------------------------------------------

func TestJobCleanLifecycle(t *testing.T) {
	c := New()
	job(c, ms(1), telemetry.Queued, 1)
	job(c, ms(2), telemetry.ExecStart, 1)
	job(c, ms(3), telemetry.ExecEnd, 1)
	// A job submitted to a failed device ends without being admitted.
	c.DeviceJob(ms(4), telemetry.ExecEnd, 2, 0, false)
	// A job failed while waiting ends without starting.
	job(c, ms(5), telemetry.Queued, 3)
	job(c, ms(6), telemetry.ExecEnd, 3)
	assertClean(t, c)
	if len(c.jobs) != 0 {
		t.Fatalf("ended jobs still tracked: %v", c.jobs)
	}
}

func TestJobDetectsBrokenTransitions(t *testing.T) {
	cases := map[string]func(c *Checker){
		"queued twice": func(c *Checker) {
			job(c, ms(1), telemetry.Queued, 1)
			job(c, ms(2), telemetry.Queued, 1)
		},
		"started before queued": func(c *Checker) {
			job(c, ms(1), telemetry.ExecStart, 1)
		},
		"started twice": func(c *Checker) {
			job(c, ms(1), telemetry.Queued, 1)
			job(c, ms(2), telemetry.ExecStart, 1)
			job(c, ms(3), telemetry.ExecStart, 1)
		},
		"ended twice": func(c *Checker) {
			job(c, ms(1), telemetry.Queued, 1)
			job(c, ms(2), telemetry.ExecStart, 1)
			job(c, ms(3), telemetry.ExecEnd, 1)
			job(c, ms(4), telemetry.ExecEnd, 1)
		},
		"no job ID": func(c *Checker) {
			job(c, ms(1), telemetry.Queued, 0)
		},
	}
	for name, play := range cases {
		t.Run(name, func(t *testing.T) {
			c := New()
			play(c)
			assertLaw(t, c, LawConservation)
		})
	}
}

func TestJobDetectsStartOnFailedNode(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU).Name
	c := New()
	c.Event(nev(0, telemetry.NodeAcquired, 0, spec))
	c.Event(nev(ms(1), telemetry.NodeFailed, 0, spec))
	job(c, ms(1), telemetry.Queued, 1)
	job(c, ms(2), telemetry.ExecStart, 1)
	assertLaw(t, c, LawCapacity)
}

// --- time-monotonic -------------------------------------------------------------

func TestTimeCleanMonotoneTicks(t *testing.T) {
	c := New()
	c.Tick(ms(1))
	c.Tick(ms(1))
	c.Tick(ms(5))
	assertClean(t, c)
}

func TestTimeDetectsClockReversal(t *testing.T) {
	c := New()
	c.Tick(ms(10))
	c.Tick(ms(9))
	assertLaw(t, c, LawTime)
}

func TestTimeDetectsEventBehindClock(t *testing.T) {
	c := New()
	c.Tick(ms(100))
	e := telemetry.Ev(ms(50), telemetry.ContainerBoot)
	e.N = 1
	c.Event(e)
	assertLaw(t, c, LawTime)
}

func TestTimeDetectsSpanBehindClock(t *testing.T) {
	c := New()
	c.Tick(ms(100))
	c.Span(span(1)) // completed at 40ms
	assertLaw(t, c, LawTime)
}

func TestEventIgnoresLifecycleKinds(t *testing.T) {
	// Lifecycle events reach the checker only when another sink wants them;
	// spans and the job hooks carry those laws, so the events count nothing
	// — not even a request completing twice, or one behind the clock.
	c := New()
	c.Tick(ms(100))
	for _, k := range []telemetry.Kind{telemetry.Arrived, telemetry.Dispatched,
		telemetry.ExecEnd, telemetry.Completed, telemetry.Completed, telemetry.CloneCancelled} {
		e := telemetry.Ev(ms(50), k)
		e.Req, e.Job = 1, 1
		c.Event(e)
	}
	c.CheckResult(ms(100), 0, 0, 0)
	assertClean(t, c)
}

// --- device-capacity ------------------------------------------------------------

func TestCapacityCleanStart(t *testing.T) {
	c := New()
	c.DeviceStart(ms(1), 0, 3, 8, false, 0.25)
	c.DeviceStart(ms(1), 0, 4, 8, false, 0)   // FBR 0: legal on CPU nodes
	c.DeviceStart(ms(1), 0, 5, 8, false, 1.5) // >1: legal oversubscription
	c.DeviceAdvance(ms(2), 0, 5, false)
	c.DeviceFinish(ms(3), 0, 0, false)
	c.DeviceFinish(ms(3), 0, 1e-9, false) // truncation residue within tolerance
	assertClean(t, c)
}

func TestCapacityDetectsStartOnFailedDevice(t *testing.T) {
	c := New()
	c.DeviceStart(ms(1), 0, 1, 8, true, 0.25)
	assertLaw(t, c, LawCapacity)
}

func TestCapacityDetectsPoolOverflow(t *testing.T) {
	c := New()
	c.DeviceStart(ms(1), 0, 9, 8, false, 0.25)
	assertLaw(t, c, LawCapacity)
}

func TestCapacityDetectsBadFBR(t *testing.T) {
	for _, fbr := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		c := New()
		c.DeviceStart(ms(1), 0, 1, 8, false, fbr)
		assertLaw(t, c, LawCapacity)
	}
}

func TestCapacityDetectsProgressWhileFailed(t *testing.T) {
	c := New()
	c.DeviceAdvance(ms(1), 0, 2, true)
	assertLaw(t, c, LawCapacity)
}

func TestCapacityDetectsUnfinishedWork(t *testing.T) {
	c := New()
	c.DeviceFinish(ms(1), 0, 0.5, false)
	assertLaw(t, c, LawCapacity)
}

// --- container-lifecycle --------------------------------------------------------

func TestLifecycleCleanPoolStory(t *testing.T) {
	c := New()
	// Warm-add two, boot one in the background, serve, release, reap.
	c.Pool(ms(0), 0, 0, PoolCounts{Idle: 2, WarmAdded: 2})
	c.Pool(ms(1), 0, 0, PoolCounts{Idle: 2, Starting: 1, WarmAdded: 2, Boots: 1})
	c.Pool(ms(2), 0, 0, PoolCounts{Idle: 1, Busy: 1, Starting: 1, WarmAdded: 2, Boots: 1})
	c.Pool(ms(3), 0, 0, PoolCounts{Idle: 2, Busy: 1, WarmAdded: 2, Boots: 1})
	c.Pool(ms(4), 0, 0, PoolCounts{Idle: 3, WarmAdded: 2, Boots: 1})
	c.Pool(ms(5), 0, 0, PoolCounts{Idle: 1, WarmAdded: 2, Boots: 1, Terminated: 2})
	assertClean(t, c)
}

func TestLifecycleDetectsConjuredContainer(t *testing.T) {
	// One idle container with no boot, warm-add or anything to explain it.
	c := New()
	c.Pool(ms(1), 0, 0, PoolCounts{Idle: 1})
	assertLaw(t, c, LawLifecycle)
}

func TestLifecycleDetectsCounterReversal(t *testing.T) {
	c := New()
	c.Pool(ms(1), 0, 0, PoolCounts{Idle: 2, Boots: 2})
	c.Pool(ms(2), 0, 0, PoolCounts{Idle: 1, Boots: 1, Terminated: 0})
	assertLaw(t, c, LawLifecycle)
}

func TestLifecycleDetectsSyncColdsBeyondBoots(t *testing.T) {
	c := New()
	c.Pool(ms(1), 0, 0, PoolCounts{Busy: 1, Boots: 1, SyncColds: 2})
	assertLaw(t, c, LawLifecycle)
}

func TestLifecycleDetectsOrphanWaiters(t *testing.T) {
	// Two claims waiting on a pool with a single busy container and nothing
	// starting: the second can never be absorbed.
	c := New()
	c.Pool(ms(1), 0, 0, PoolCounts{Busy: 1, Waiting: 2, Boots: 1})
	assertLaw(t, c, LawLifecycle)
}

func TestLifecycleDetectsEmptyContainerEvent(t *testing.T) {
	c := New()
	e := telemetry.Ev(ms(1), telemetry.ContainerPrewarm)
	e.N = 0
	c.Event(e)
	assertLaw(t, c, LawLifecycle)
}

// --- node-lifecycle -------------------------------------------------------------

func TestNodeCleanLifecycle(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU).Name
	c := New()
	c.Event(nev(ms(0), telemetry.NodeRequested, 0, spec))
	c.Event(nev(ms(100), telemetry.NodeAcquired, 0, spec))
	c.Event(nev(ms(200), telemetry.NodeFailed, 0, spec))
	c.Event(nev(ms(300), telemetry.NodeRecovered, 0, spec))
	c.Event(nev(ms(400), telemetry.NodeReleased, 0, spec))
	assertClean(t, c)
}

func TestNodeDetectsDoubleFailure(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU).Name
	c := New()
	c.Event(nev(ms(0), telemetry.NodeAcquired, 0, spec))
	c.Event(nev(ms(1), telemetry.NodeFailed, 0, spec))
	c.Event(nev(ms(2), telemetry.NodeFailed, 0, spec))
	assertLaw(t, c, LawNode)
}

func TestNodeDetectsRecoveryWithoutFailure(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU).Name
	c := New()
	c.Event(nev(ms(0), telemetry.NodeAcquired, 0, spec))
	c.Event(nev(ms(1), telemetry.NodeRecovered, 0, spec))
	assertLaw(t, c, LawNode)
}

func TestNodeDetectsReleaseWithoutAcquire(t *testing.T) {
	c := New()
	c.Event(nev(ms(1), telemetry.NodeReleased, 0, "whatever"))
	assertLaw(t, c, LawNode)
}

func TestNodeDetectsDoubleRelease(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU).Name
	c := New()
	c.Event(nev(ms(0), telemetry.NodeAcquired, 0, spec))
	c.Event(nev(ms(1), telemetry.NodeReleased, 0, spec))
	c.Event(nev(ms(2), telemetry.NodeReleased, 0, spec))
	assertLaw(t, c, LawNode)
}

func TestCheckResultDetectsUninjectedFailures(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU).Name
	c := New()
	c.Event(nev(ms(0), telemetry.NodeAcquired, 0, spec))
	c.Event(nev(ms(1), telemetry.NodeFailed, 0, spec))
	// Result claims no failure was injected, yet a NodeFailed was observed.
	c.CheckResult(ms(50), 0, 0, 0)
	assertLaw(t, c, LawNode)
}

// --- billing --------------------------------------------------------------------

func TestBillingCleanReconciliation(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU)
	c := New()
	c.Event(nev(0, telemetry.NodeAcquired, 0, spec.Name))
	hold := 10 * time.Second
	c.Billing(hold, spec.CostPerSecond()*hold.Seconds())
	c.Event(nev(hold, telemetry.NodeReleased, 0, spec.Name))
	// After release the cost freezes at the released amount.
	c.Billing(2*hold, spec.CostPerSecond()*hold.Seconds())
	assertClean(t, c)
}

func TestBillingDetectsDoubleBilledNode(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU)
	c := New()
	c.Event(nev(0, telemetry.NodeAcquired, 0, spec.Name))
	hold := 10 * time.Second
	// The books report twice what the lifecycle events imply.
	c.Billing(hold, 2*spec.CostPerSecond()*hold.Seconds())
	assertLaw(t, c, LawBilling)
}

func TestBillingDetectsCostDecrease(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU)
	c := New()
	c.Event(nev(0, telemetry.NodeAcquired, 0, spec.Name))
	c.Billing(10*time.Second, spec.CostPerSecond()*10)
	c.Billing(11*time.Second, spec.CostPerSecond()*5)
	assertLaw(t, c, LawBilling)
}

func TestBillingSkipsUnknownSpecs(t *testing.T) {
	// Doctored test specs not in the catalog must disable reconciliation,
	// not fabricate violations.
	c := New()
	c.Event(nev(0, telemetry.NodeAcquired, 0, "not-a-real-instance-type"))
	c.Billing(10*time.Second, 123.456)
	assertClean(t, c)
}

// --- span-telescope -------------------------------------------------------------

func TestTelescopeCleanSpans(t *testing.T) {
	c := New()
	playRequest(c)
	// A failed job's span: queued, never started, ended at the failure.
	s := span(2)
	s.ExecStart, s.ExecEnd, s.Completed, s.Failed = telemetry.Unset, ms(30), ms(30), true
	c.Span(s)
	assertClean(t, c)
}

func TestTelescopeDetectsBrokenSum(t *testing.T) {
	// Completion stamped after the job ended: latency exceeds the
	// components.
	c := New()
	s := span(1)
	s.Completed = ms(45)
	c.Span(s)
	assertLaw(t, c, LawTelescope)
}

func TestTelescopeDetectsMissingJobRecord(t *testing.T) {
	// The job never executed, yet the request completes.
	c := New()
	s := span(1)
	s.ExecStart, s.ExecEnd, s.Completed = telemetry.Unset, telemetry.Unset, ms(20)
	c.Span(s)
	assertLaw(t, c, LawTelescope)
}

func TestConservationDetectsDispatchBeforeArrival(t *testing.T) {
	// A stamp running backwards makes a span component negative.
	c := New()
	s := span(1)
	s.Arrived, s.Batched = ms(11), ms(11)
	c.Span(s)
	assertLaw(t, c, LawTelescope)
}

// --- bookkeeping of the checker itself ------------------------------------------

func TestViolationRecordingIsBounded(t *testing.T) {
	c := New()
	for i := 0; i < recordLimit+50; i++ {
		c.Tick(ms(10))
		c.Tick(ms(9)) // reversal every iteration
	}
	if len(c.Violations()) != recordLimit {
		t.Fatalf("recorded %d violations, want cap %d", len(c.Violations()), recordLimit)
	}
	if c.Total() != recordLimit+50 {
		t.Fatalf("total %d, want %d", c.Total(), recordLimit+50)
	}
	if c.Clean() {
		t.Fatal("Clean() true with violations")
	}
}

func TestNilCheckerAsSink(t *testing.T) {
	var c *Checker
	if c.AsSink() != nil {
		t.Fatal("nil checker must convert to a nil Sink interface")
	}
	sink := New().AsSink()
	if sink == nil {
		t.Fatal("live checker must convert to a non-nil Sink")
	}
	if _, ok := sink.(telemetry.SpanSink); !ok {
		t.Fatal("checker must take spans")
	}
	if telemetry.WantsLifecycle(sink) {
		t.Fatal("checker must decline lifecycle events")
	}
}

func TestErrSummarizesFirstFew(t *testing.T) {
	c := New()
	if c.Err() != nil {
		t.Fatal("clean checker must have nil Err")
	}
	for i := 0; i < 10; i++ {
		c.Tick(ms(10))
		c.Tick(ms(9))
	}
	err := c.Err()
	if err == nil {
		t.Fatal("dirty checker must report an error")
	}
	if len(err.Error()) == 0 {
		t.Fatal("empty error text")
	}
}
