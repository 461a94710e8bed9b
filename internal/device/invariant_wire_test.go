package device

import (
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/invariant"
	"repro/internal/sim"
)

// White-box mutation tests for the invariant wiring: drive the real device
// into states the hooks must flag, proving the checker is live inside the
// layer — not just against scripted hook calls.

func checkedDevice(t *testing.T, maxResident int) (*sim.Engine, *Device, *invariant.Checker) {
	t.Helper()
	eng := sim.NewEngine()
	d := New(eng, hardware.MostPerformant(hardware.GPU), maxResident)
	chk := invariant.New()
	d.SetCheck(chk, 0)
	return eng, d, chk
}

// jobSeq numbers the test jobs: a checked device reports every transition
// by job ID, and ID 0 means untracked.
var jobSeq int64

func noopJob(solo time.Duration) *Job {
	jobSeq++
	return &Job{ID: jobSeq, Batch: 1, Solo: solo, FBR: 0.2, Mode: Spatial, Done: func(*Job) {}}
}

// A normal submit/run/finish cycle through the wired device must be clean.
func TestDeviceCheckCleanCycle(t *testing.T) {
	eng, d, chk := checkedDevice(t, 4)
	for i := 0; i < 3; i++ {
		d.Submit(noopJob(50 * time.Millisecond))
	}
	eng.RunAll()
	if err := chk.Err(); err != nil {
		t.Fatalf("clean cycle tripped the wired checker:\n%v", err)
	}
	if d.JobsDone() != 3 {
		t.Fatalf("jobs done %d, want 3", d.JobsDone())
	}
}

// Mutation: fail the device without evacuating its jobs, then let the lane
// admit its next job, as a failure path that skips Fail() would. The
// DeviceStart hook must fire.
func TestDeviceCheckDetectsStartWhileFailed(t *testing.T) {
	_, d, chk := checkedDevice(t, 4)
	first, next := noopJob(time.Second), noopJob(time.Second)
	first.Mode, next.Mode = Queued, Queued
	d.Submit(first)
	d.Submit(next)  // waits in the lane behind first
	d.failed = true // the mutation: failure without evacuating jobs
	d.Cancel(first) // frees the lane, which starts next on the failed device
	if chk.Clean() {
		t.Fatal("start on a failed device not detected")
	}
	assertOnlyLaw(t, chk, invariant.LawCapacity)
}

// Mutation: force one job past the resident bound. The capacity law fires.
func TestDeviceCheckDetectsResidencyOverflow(t *testing.T) {
	_, d, chk := checkedDevice(t, 2)
	for range 3 {
		d.Submit(noopJob(time.Second))
	}
	if !chk.Clean() {
		t.Fatalf("bound-respecting submits must be clean: %v", chk.Err())
	}
	// The third job waits for a memory slot; start it anyway, as a buggy
	// admission path would.
	d.start(d.pendingSpat[0])
	if chk.Clean() {
		t.Fatal("third resident job beyond maxResident=2 not detected")
	}
	assertOnlyLaw(t, chk, invariant.LawCapacity)
}

// Mutation: start a running job a second time. The job hook fires.
func TestDeviceCheckDetectsDoubleStart(t *testing.T) {
	_, d, chk := checkedDevice(t, 4)
	j := noopJob(time.Second)
	d.Submit(j)
	d.start(j)
	if chk.Clean() {
		t.Fatal("a job started twice not detected")
	}
	assertOnlyLaw(t, chk, invariant.LawConservation)
}

// An untracked job (ID 0) on a checked device is a breach: the checker
// cannot follow it.
func TestDeviceCheckDetectsUntrackedJob(t *testing.T) {
	eng, d, chk := checkedDevice(t, 4)
	j := noopJob(time.Second)
	j.ID = 0
	d.Submit(j)
	eng.RunAll()
	assertOnlyLaw(t, chk, invariant.LawConservation)
	if chk.Clean() {
		t.Fatal("untracked job not detected")
	}
}

// Mutation: make progress on a failed device by flipping the flag without
// Fail()'s job evacuation. The DeviceAdvance hook must fire.
func TestDeviceCheckDetectsProgressWhileFailed(t *testing.T) {
	eng, d, chk := checkedDevice(t, 4)
	d.Submit(noopJob(time.Second))
	d.failed = true // the mutation: failure without evacuating jobs
	eng.Run(100 * time.Millisecond)
	d.ActiveDemand() // forces advance()
	if chk.Clean() {
		t.Fatal("progress on a failed device not detected")
	}
	assertOnlyLaw(t, chk, invariant.LawCapacity)
}

// Mutation: finish a job early, with work remaining. DeviceFinish fires.
func TestDeviceCheckDetectsEarlyFinish(t *testing.T) {
	eng, d, chk := checkedDevice(t, 4)
	j := noopJob(time.Second)
	d.Submit(j)
	eng.Run(100 * time.Millisecond)
	d.finish(j) // the mutation: completion with ~0.9s of work left
	if chk.Clean() {
		t.Fatal("early finish with remaining work not detected")
	}
	assertOnlyLaw(t, chk, invariant.LawCapacity)
}

func assertOnlyLaw(t *testing.T, chk *invariant.Checker, law string) {
	t.Helper()
	for _, v := range chk.Violations() {
		if v.Law != law {
			t.Fatalf("expected only %s violations, got %v", law, v)
		}
	}
}
