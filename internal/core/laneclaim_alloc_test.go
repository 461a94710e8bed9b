package core

// Allocation gate for the time-share lane claim: a lane that re-arms its
// container claim hands the pool a callback bound once per lane and buffers
// its submissions in two reused slices, so a steady run of claims allocates
// nothing.

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestTimeShareLaneClaimAllocFree(t *testing.T) {
	skipIfRace(t)
	rng := sim.NewRNG(11)
	cfg := Config{
		Model:   model.MustByName("ResNet 50"),
		Stream:  trace.PoissonCurve(rng, 40, 10*time.Minute).Stream(sim.NewRNG(11)),
		Scheme:  NewPaldia(),
		Seed:    11,
		Metrics: MetricsOnline,
	}
	ru := Start(cfg)
	// Warm the free lists: jobs, containers, pending buffers, engine arena.
	ru.StepTo(60 * time.Second)

	// Count the claims that land during the measured steps, so the gate
	// cannot pass on a run that never re-arms a lane claim.
	claims := 0
	for _, s := range ru.r.slots {
		if s.sn == nil {
			continue
		}
		for i := range s.sn.lanes {
			ln := &s.sn.lanes[i]
			claimed := ln.claimFn
			ln.claimFn = func() {
				claims++
				claimed()
			}
		}
	}
	now := ru.Now()
	step := 250 * time.Millisecond
	allocs := testing.AllocsPerRun(100, func() {
		now += step
		ru.StepTo(now)
	})
	if claims == 0 {
		t.Fatal("no time-share lane claim landed in the measured steps; the gate measures nothing")
	}
	if allocs != 0 {
		t.Fatalf("steady-state dispatch with %d lane claims allocates %.1f objects per %v step, want 0", claims, allocs, step)
	}
}
