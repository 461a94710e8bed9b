package obs

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// With no feed subscriber the hub's per-request path renders nothing: an
// arrival, its finished span and a gauge sample allocate nothing once the
// tenant and gauge entries exist.
func TestHubFeedAllocFree(t *testing.T) {
	p := NewPlane(Options{Clock: NewFakeClock()})
	h := p.Hub()
	var sp telemetry.Span
	sp.Reset(1, 0)
	sp.Arrived, sp.Batched = 10*time.Millisecond, 10*time.Millisecond
	sample := telemetry.Event{Kind: telemetry.Sample, Req: -1, Job: -1, Detail: "cost_usd", Value: 0.25}
	at := time.Duration(0)
	step := func() {
		at += time.Millisecond
		h.Arrive()
		sp.Completed = at + 20*time.Millisecond
		h.Span(&sp)
		sample.At = at
		h.Event(sample)
	}
	step() // create the tenant ledger and the gauge entry
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("Arrive + Span + Sample with no subscriber allocated %v times per request, want 0", n)
	}
}
