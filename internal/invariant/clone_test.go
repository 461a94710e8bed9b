package invariant

import (
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/telemetry"
)

// Mutation tests for the clone/hedge conservation laws, the scoring-copy
// telescope, and the spot-revocation node-lifecycle laws — same discipline
// as invariant_test.go: every law gets a clean run and a broken run.

// clonedSpan returns the span of request req whose set cloned one copy and
// cancelled copy 0 (job 1) at 40ms, when copy 1 (job 2) won: the span
// carries copy 0's stamps, its execution ending at the cancel.
func clonedSpan(req int64) *telemetry.Span {
	s := span(req)
	s.Clones, s.Cancelled = 1, 1
	return s
}

// playClonedRequest walks one request through a legal clone-to-2 race:
// primary job 1 and copy job 2 are launched together, the copy wins at
// 40ms, the primary is cancelled, and the set resolves on job 2.
func playClonedRequest(c *Checker) {
	c.Arrive()
	c.CopyLaunched(ms(10), 1)
	c.CopyLaunched(ms(10), 2)
	job(c, ms(12), telemetry.Queued, 1)
	job(c, ms(12), telemetry.Queued, 2)
	job(c, ms(14), telemetry.ExecStart, 2)
	job(c, ms(15), telemetry.ExecStart, 1)
	job(c, ms(40), telemetry.ExecEnd, 2)
	c.CopyCancelled(ms(40), 1)
	c.CloneResolved(ms(40), 2, false, []int64{1, 2})
	c.Span(clonedSpan(1))
}

func TestCloneCleanLifecycle(t *testing.T) {
	c := New()
	playClonedRequest(c)
	c.CheckResult(ms(50), 1, 0, 0)
	assertClean(t, c)
	if len(c.jobs) != 0 {
		t.Fatalf("resolved copies still tracked: %v", c.jobs)
	}
}

func TestCloneBatchSiblingsShareCopies(t *testing.T) {
	// Two requests of one batch share both copies: the set reports its
	// copies once, and each request hands over its own span.
	c := New()
	playClonedRequest(c)
	c.Arrive()
	c.Span(clonedSpan(2))
	c.CheckResult(ms(50), 2, 0, 0)
	assertClean(t, c)
}

func TestCloneDetectsCloneBeforeDispatch(t *testing.T) {
	// The span counts a clone, but the request was never dispatched: there
	// was no primary to race against.
	c := New()
	s := clonedSpan(1)
	s.Dispatched, s.Queued, s.ExecStart = telemetry.Unset, telemetry.Unset, telemetry.Unset
	c.Span(s)
	assertLaw(t, c, LawConservation)
}

func TestCloneDetectsCloneWithoutJobID(t *testing.T) {
	for _, id := range []int64{0, 1} {
		c := New()
		c.CopyLaunched(ms(10), 1)
		// Job 0 is untracked; job 1 is already the first copy.
		c.CopyLaunched(ms(10), id)
		assertLaw(t, c, LawConservation)
	}
}

func TestCloneDetectsCancelOfUnknownCopy(t *testing.T) {
	c := New()
	c.CopyLaunched(ms(10), 1)
	job(c, ms(12), telemetry.Queued, 3) // a plain job, not a copy
	// Job 7 was never launched; job 3 is no copy.
	c.CopyCancelled(ms(20), 7)
	c.CopyCancelled(ms(20), 3)
	assertLaw(t, c, LawConservation)
}

func TestCloneDetectsDoubleCancel(t *testing.T) {
	c := New()
	c.CopyLaunched(ms(10), 1)
	c.CopyLaunched(ms(10), 2)
	c.CopyCancelled(ms(20), 2)
	c.CopyCancelled(ms(21), 2)
	assertLaw(t, c, LawConservation)
}

func TestCloneDetectsCancelAfterEnd(t *testing.T) {
	// The copy already finished on its device; cancelling it would release
	// its capacity twice.
	c := New()
	c.CopyLaunched(ms(10), 1)
	job(c, ms(12), telemetry.Queued, 1)
	job(c, ms(15), telemetry.ExecStart, 1)
	job(c, ms(40), telemetry.ExecEnd, 1)
	c.CopyCancelled(ms(45), 1)
	assertLaw(t, c, LawConservation)
}

func TestCloneDetectsUnresolvedCopyAtTerminal(t *testing.T) {
	// The copy is neither cancelled nor finished when the set resolves:
	// cancel-on-first-complete leaked device capacity.
	c := New()
	c.CopyLaunched(ms(10), 1)
	c.CopyLaunched(ms(10), 2)
	job(c, ms(12), telemetry.Queued, 1)
	job(c, ms(15), telemetry.ExecStart, 1)
	job(c, ms(40), telemetry.ExecEnd, 1)
	c.CloneResolved(ms(40), 1, false, []int64{1, 2})
	assertLaw(t, c, LawConservation)
}

func TestCloneDetectsEndAfterResolution(t *testing.T) {
	// A copy reported cancelled but left running on its device ends after
	// its set resolved — the device never released it.
	c := New()
	c.CopyLaunched(ms(10), 1)
	c.CopyLaunched(ms(10), 2)
	job(c, ms(12), telemetry.Queued, 1)
	job(c, ms(12), telemetry.Queued, 2)
	job(c, ms(14), telemetry.ExecStart, 2)
	job(c, ms(15), telemetry.ExecStart, 1)
	job(c, ms(40), telemetry.ExecEnd, 2)
	c.CopyCancelled(ms(40), 1)
	c.CloneResolved(ms(40), 2, false, []int64{1, 2})
	assertClean(t, c)
	job(c, ms(45), telemetry.ExecEnd, 1)
	assertLaw(t, c, LawConservation)
}

func TestCloneFailedSetResolves(t *testing.T) {
	// Every copy died: the set resolves with no scoring copy.
	c := New()
	c.CopyLaunched(ms(10), 1)
	c.CopyLaunched(ms(10), 2)
	job(c, ms(12), telemetry.Queued, 1)
	c.DeviceJob(ms(12), telemetry.ExecEnd, 2, 0, false) // submitted to a failed device
	job(c, ms(30), telemetry.ExecEnd, 1)
	c.CloneResolved(ms(30), 0, false, []int64{1, 2})
	assertClean(t, c)
}

// --- scoring-copy telescoping ---------------------------------------------------

// playSyncSet launches copies 1 and 2 of a synchronized set; copy 1 runs
// 15–40ms and copy 2 fails at 45ms, unstarted.
func playSyncSet(c *Checker) {
	c.CopyLaunched(ms(10), 1)
	c.CopyLaunched(ms(10), 2)
	job(c, ms(12), telemetry.Queued, 1)
	job(c, ms(12), telemetry.Queued, 2)
	job(c, ms(15), telemetry.ExecStart, 1)
	job(c, ms(40), telemetry.ExecEnd, 1)
	job(c, ms(45), telemetry.ExecEnd, 2)
}

func TestCloneSyncSlackAccepted(t *testing.T) {
	// Synchronized variant: the scoring copy finished at 40ms but the set
	// resolved at 45ms (the barrier waited on a sibling that then failed).
	// Positive slack is legal; the checker must not demand exact equality.
	c := New()
	playSyncSet(c)
	c.CloneResolved(ms(45), 1, true, []int64{1, 2})
	assertClean(t, c)
}

func TestCloneDetectsSlackWithoutSync(t *testing.T) {
	// The same stall in a cancel-on-first-complete set: its winner must
	// resolve the set the instant it finishes.
	c := New()
	playSyncSet(c)
	c.CloneResolved(ms(45), 1, false, []int64{1, 2})
	assertLaw(t, c, LawTelescope)
}

func TestCloneDetectsCompletionBeforeCopyEnd(t *testing.T) {
	// A resolution stamped before the scoring copy's exec end makes the
	// component sum exceed the latency — negative slack is never legal.
	c := New()
	playSyncSet(c)
	c.CloneResolved(ms(39), 1, true, []int64{1, 2})
	if c.Total() == 0 {
		t.Fatal("completion before the scoring copy's end passed clean")
	}
}

func TestCloneDetectsCompletionOnUnexecutedCopy(t *testing.T) {
	// The resolution names copy 2, which failed before it ever executed, so
	// it cannot be the scoring copy.
	c := New()
	playSyncSet(c)
	c.CloneResolved(ms(45), 2, true, []int64{1, 2})
	assertLaw(t, c, LawTelescope)
}

func TestCloneDetectsCompletionOnUnknownCopy(t *testing.T) {
	c := New()
	playSyncSet(c)
	// The resolution names job 9, which was never a copy of this set.
	c.CloneResolved(ms(45), 9, true, []int64{1, 2})
	assertLaw(t, c, LawTelescope)
}

// --- spot revocation node laws --------------------------------------------------

func TestNodeCleanRevocationLifecycle(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU).Name
	c := New()
	c.Event(nev(ms(0), telemetry.NodeAcquired, 0, spec))
	c.Event(nev(ms(100), telemetry.NodeRevoked, 0, spec))
	c.Event(nev(ms(200), telemetry.NodeReleased, 0, spec))
	assertClean(t, c)
}

func TestNodeDetectsRevokeWithoutAcquire(t *testing.T) {
	c := New()
	c.Event(nev(ms(1), telemetry.NodeRevoked, 0, "whatever"))
	assertLaw(t, c, LawNode)
}

func TestNodeDetectsDoubleRevoke(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU).Name
	c := New()
	c.Event(nev(ms(0), telemetry.NodeAcquired, 0, spec))
	c.Event(nev(ms(1), telemetry.NodeRevoked, 0, spec))
	c.Event(nev(ms(2), telemetry.NodeRevoked, 0, spec))
	assertLaw(t, c, LawNode)
}

func TestNodeDetectsRevokeAfterRelease(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU).Name
	c := New()
	c.Event(nev(ms(0), telemetry.NodeAcquired, 0, spec))
	c.Event(nev(ms(1), telemetry.NodeReleased, 0, spec))
	c.Event(nev(ms(2), telemetry.NodeRevoked, 0, spec))
	assertLaw(t, c, LawNode)
}

func TestNodeDetectsFailureAfterRevocation(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU).Name
	c := New()
	c.Event(nev(ms(0), telemetry.NodeAcquired, 0, spec))
	c.Event(nev(ms(1), telemetry.NodeRevoked, 0, spec))
	c.Event(nev(ms(2), telemetry.NodeFailed, 0, spec))
	assertLaw(t, c, LawNode)
}

func TestNodeDetectsRecoveryAfterRevocation(t *testing.T) {
	spec := hardware.MostPerformant(hardware.GPU).Name
	c := New()
	c.Event(nev(ms(0), telemetry.NodeAcquired, 0, spec))
	c.Event(nev(ms(1), telemetry.NodeFailed, 0, spec))
	c.Event(nev(ms(2), telemetry.NodeRevoked, 0, spec))
	c.Event(nev(ms(3), telemetry.NodeRecovered, 0, spec))
	assertLaw(t, c, LawNode)
}

// --- spot billing ---------------------------------------------------------------

func TestBillingSpotRateFromEvent(t *testing.T) {
	// A spot acquisition carries its discounted effective rate in Value; the
	// ledger must reconcile against that rate, not the catalog price.
	spec := hardware.MostPerformant(hardware.GPU)
	rate := spec.CostPerSecond() * 0.35
	c := New()
	acq := nev(0, telemetry.NodeAcquired, 0, spec.Name)
	acq.Value, acq.Detail = rate, "spot"
	c.Event(acq)
	hold := 10 * time.Second
	c.Billing(hold, rate*hold.Seconds())
	assertClean(t, c)
}

func TestBillingDetectsSpotOverbilling(t *testing.T) {
	// The books charge the on-demand catalog rate for a node whose lifecycle
	// events promise a discount.
	spec := hardware.MostPerformant(hardware.GPU)
	c := New()
	acq := nev(0, telemetry.NodeAcquired, 0, spec.Name)
	acq.Value, acq.Detail = spec.CostPerSecond()*0.35, "spot"
	c.Event(acq)
	hold := 10 * time.Second
	c.Billing(hold, spec.CostPerSecond()*hold.Seconds())
	assertLaw(t, c, LawBilling)
}
