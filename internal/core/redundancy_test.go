package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/hardware"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// spotCfg layers the standard spot/revocation study knobs onto a config.
func spotCfg(cfg Config) Config {
	cfg.SpotDiscount = 0.65
	cfg.SpotFraction = 1
	cfg.RevokeEvery = 30 * time.Second
	cfg.RevokeNotice = 2 * time.Second
	return cfg
}

// TestRedundancyCleanUnderInvariants runs every redundant-dispatch variant —
// clone-to-k, synchronized clones, hedged — with the full invariant checker
// attached, on calm hardware and under spot revocation and node failures,
// and demands zero violations.
func TestRedundancyCleanUnderInvariants(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"clone-2", func() Config {
			return Config{
				Model:  model.MustByName("ResNet 50"),
				Trace:  shortAzure(1, 200, 2*time.Minute),
				Scheme: NewPaldiaCloneK(2, false),
			}
		}},
		{"clone-3", func() Config {
			return Config{
				Model:  model.MustByName("DenseNet 121"),
				Trace:  shortAzure(2, 150, 2*time.Minute),
				Scheme: NewPaldiaCloneK(3, false),
			}
		}},
		{"clone-2-sync", func() Config {
			return Config{
				Model:  model.MustByName("ResNet 50"),
				Trace:  shortAzure(3, 200, 2*time.Minute),
				Scheme: NewPaldiaCloneK(2, true),
			}
		}},
		{"hedge-p95", func() Config {
			return Config{
				Model:  model.MustByName("SENet 18"),
				Trace:  shortAzure(4, 200, 2*time.Minute),
				Scheme: NewPaldiaHedged(95),
			}
		}},
		{"clone-2-spot-revoke", func() Config {
			return spotCfg(Config{
				Model:  model.MustByName("ResNet 50"),
				Trace:  shortAzure(5, 200, 3*time.Minute),
				Scheme: NewPaldiaCloneK(2, false),
			})
		}},
		{"clone-3-spot-revoke", func() Config {
			return spotCfg(Config{
				Model:  model.MustByName("GoogleNet"),
				Trace:  shortAzure(6, 250, 3*time.Minute),
				Scheme: NewPaldiaCloneK(3, false),
			})
		}},
		{"hedge-spot-revoke", func() Config {
			return spotCfg(Config{
				Model:  model.MustByName("ResNet 50"),
				Trace:  shortAzure(7, 200, 3*time.Minute),
				Scheme: NewPaldiaHedged(90),
			})
		}},
		{"clone-2-failures", func() Config {
			return Config{
				Model:           model.MustByName("DenseNet 121"),
				Trace:           shortAzure(8, 180, 3*time.Minute),
				Scheme:          NewPaldiaCloneK(2, false),
				FailureEvery:    45 * time.Second,
				FailureDuration: 30 * time.Second,
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chk := invariant.New()
			cfg := tc.cfg()
			cfg.Invariants = chk
			res := Run(cfg)
			if err := chk.Err(); err != nil {
				t.Fatalf("invariant violations (%d total):\n%v", chk.Total(), err)
			}
			if res.Requests == 0 {
				t.Fatal("run served no requests")
			}
		})
	}
}

// TestCloneCancellationUnderInvariants pins the cancel-on-first-complete
// telemetry contract on a real run: clones are dispatched, losers are
// cancelled, and the checker (which enforces CloneCancelled-before-Completed
// ordering and double-cancel conservation) stays silent.
func TestCloneCancellationUnderInvariants(t *testing.T) {
	chk := invariant.New()
	rec := telemetry.NewRecorder()
	Run(Config{
		Model:      model.MustByName("ResNet 50"),
		Trace:      shortAzure(9, 200, 2*time.Minute),
		Scheme:     NewPaldiaCloneK(2, false),
		Telemetry:  rec,
		Invariants: chk,
	})
	if err := chk.Err(); err != nil {
		t.Fatalf("invariant violations:\n%v", err)
	}
	var cloned, cancelled int
	for _, e := range rec.Events() {
		switch e.Kind {
		case telemetry.Cloned:
			cloned++
		case telemetry.CloneCancelled:
			cancelled++
		}
	}
	if cloned == 0 {
		t.Fatal("clone-2 run emitted no Cloned events")
	}
	if cancelled == 0 {
		t.Fatal("clone-2 run cancelled no copies (no race ever resolved)")
	}
}

// TestSyncCloneNoCancellation pins the synchronized-service variant: the set
// completes only when every copy finishes, so no loser is ever cancelled
// on the happy path (copies only end early when their node dies).
func TestSyncCloneNoCancellation(t *testing.T) {
	rec := telemetry.NewRecorder()
	chk := invariant.New()
	Run(Config{
		Model:      model.MustByName("ResNet 50"),
		Trace:      shortAzure(10, 200, time.Minute),
		Scheme:     NewPaldiaCloneK(2, true),
		Telemetry:  rec,
		Invariants: chk,
	})
	if err := chk.Err(); err != nil {
		t.Fatalf("invariant violations:\n%v", err)
	}
	for _, e := range rec.Events() {
		if e.Kind == telemetry.CloneCancelled {
			t.Fatalf("synchronized clones cancelled copy job %d at %v", e.Job, e.At)
		}
	}
}

// TestHedgeFireAfterResolutionIsNoOp covers the hedge timer racing the
// primary's completion: once the set has resolved (or already hedged), a
// firing timer must launch nothing.
func TestHedgeFireAfterResolutionIsNoOp(t *testing.T) {
	d := &redundancy{r: &runner{}, hedge: true}
	s := &cloneSet{red: d}
	s.resolved = true
	s.hedgeFire() // must not touch pools or launch
	if s.hedged || s.launched != 0 {
		t.Fatalf("hedge fired on a resolved set: hedged=%v launched=%d", s.hedged, s.launched)
	}

	s = &cloneSet{red: d}
	s.hedged = true
	s.hedgeFire()
	if s.launched != 0 {
		t.Fatalf("hedge fired twice: launched=%d", s.launched)
	}

	// Unresolved but no second healthy pool: the hedge stays unarmed so a
	// later fire could still use a recovered pool.
	s = &cloneSet{red: d}
	s.hedgeFire()
	if s.hedged || s.launched != 0 {
		t.Fatalf("hedge launched with no backup pool: hedged=%v launched=%d", s.hedged, s.launched)
	}
}

// TestHedgeThresholdFallsBackToHalfSLO pins the cold-start behavior of the
// hedge age threshold: half the SLO until the tracker has enough samples,
// the online percentile after.
func TestHedgeThresholdFallsBackToHalfSLO(t *testing.T) {
	d := &redundancy{
		r:     &runner{cfg: Config{SLO: 400 * time.Millisecond}},
		hedge: true,
		age:   metrics.NewAgeTracker(95),
	}
	if got := d.hedgeThreshold(); got != 200*time.Millisecond {
		t.Fatalf("cold threshold = %v, want SLO/2 = 200ms", got)
	}
	for i := 0; i < 200; i++ {
		d.age.Add(100 * time.Millisecond)
	}
	got := d.hedgeThreshold()
	if got <= 0 || got > 110*time.Millisecond {
		t.Fatalf("warm threshold = %v, want ~100ms from the tracker", got)
	}
}

// TestCloneSameTickWinnerDeterministic pins the mechanism the clone race
// relies on when both copies finish at the same instant: the engine fires
// Done callbacks in (at, seq) order, and cancelling the sibling from inside
// the first Done suppresses the second entirely. Whichever copy was
// submitted first wins, deterministically, in both submission orders.
func TestCloneSameTickWinnerDeterministic(t *testing.T) {
	specs := hardware.Catalog()
	var gpu hardware.Spec
	for _, s := range specs {
		if s.IsGPU() {
			gpu = s
			break
		}
	}
	for _, order := range []string{"ab", "ba"} {
		eng := sim.NewEngine()
		devA := device.New(eng, gpu, 4)
		devB := device.New(eng, gpu, 4)
		var winner string
		mk := func(name string, self, other *device.Device, otherJob *device.Job) *device.Job {
			j := &device.Job{Batch: 1, Solo: 50 * time.Millisecond, Compute: 1, Mode: device.Spatial}
			j.Done = func(done *device.Job) {
				if winner != "" {
					t.Fatalf("order %s: second Done fired after %s already won", order, winner)
				}
				winner = name
				other.Cancel(otherJob)
			}
			return j
		}
		jobA := &device.Job{}
		jobB := &device.Job{}
		*jobA = *mk("a", devA, devB, jobB)
		*jobB = *mk("b", devB, devA, jobA)
		if order == "ab" {
			devA.Submit(jobA)
			devB.Submit(jobB)
		} else {
			devB.Submit(jobB)
			devA.Submit(jobA)
		}
		eng.Run(time.Second)
		want := "a"
		if order == "ba" {
			want = "b"
		}
		if winner != want {
			t.Fatalf("order %s: winner = %q, want first-submitted %q", order, winner, want)
		}
	}
}

// TestSpotRevocationZeroSurvivors drives revocation fast enough that every
// pool (all spot) is revoked before any replacement can arrive, leaving an
// interval with zero capable nodes. Requests must wait, service must resume
// on the respawned pools, and the checker must stay silent end to end.
func TestSpotRevocationZeroSurvivors(t *testing.T) {
	chk := invariant.New()
	rec := telemetry.NewRecorder()
	res := Run(Config{
		Model:        model.MustByName("ResNet 50"),
		Trace:        shortAzure(11, 150, 2*time.Minute),
		Scheme:       NewPaldiaCloneK(2, false),
		SpotDiscount: 0.65,
		SpotFraction: 1,
		RevokeEvery:  5 * time.Second,
		RevokeNotice: time.Second,
		Telemetry:    rec,
		Invariants:   chk,
	})
	if err := chk.Err(); err != nil {
		t.Fatalf("invariant violations:\n%v", err)
	}
	var revoked, respawned int
	var lastRevoke, firstRespawn time.Duration
	firstRespawn = -1
	for _, e := range rec.Events() {
		switch {
		case e.Kind == telemetry.NodeRevoked:
			revoked++
			if revoked == 2 {
				lastRevoke = e.At
			}
		case e.Kind == telemetry.HWSwitch && e.Detail == "respawn":
			respawned++
			if firstRespawn < 0 {
				firstRespawn = e.At
			}
		}
	}
	if revoked < 2 {
		t.Fatalf("only %d revocations; both pools must be revoked", revoked)
	}
	if respawned == 0 {
		t.Fatal("no pool was ever respawned after revocation")
	}
	if firstRespawn < lastRevoke {
		t.Fatalf("replacement at %v arrived before the second revocation at %v — no zero-survivor window",
			firstRespawn, lastRevoke)
	}
	if res.Requests == 0 || res.Requests == res.FailedRequests {
		t.Fatalf("service never resumed: %d/%d requests failed", res.FailedRequests, res.Requests)
	}
}

// TestRedundancyDeterministic runs each redundant variant twice with the
// same seed and demands identical results and identical telemetry streams
// (the make test-determinism gate picks this up by name).
func TestRedundancyDeterministic(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"clone-2-spot", func() Config {
			return spotCfg(Config{
				Model:  model.MustByName("ResNet 50"),
				Trace:  shortAzure(12, 200, 2*time.Minute),
				Scheme: NewPaldiaCloneK(2, false),
			})
		}},
		{"clone-2-sync", func() Config {
			return Config{
				Model:  model.MustByName("DenseNet 121"),
				Trace:  shortAzure(13, 150, 2*time.Minute),
				Scheme: NewPaldiaCloneK(2, true),
			}
		}},
		{"hedge-spot", func() Config {
			return spotCfg(Config{
				Model:  model.MustByName("SENet 18"),
				Trace:  shortAzure(14, 200, 2*time.Minute),
				Scheme: NewPaldiaHedged(95),
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (Result, []telemetry.Event) {
				rec := telemetry.NewRecorder()
				cfg := tc.cfg()
				cfg.Telemetry = rec
				return Run(cfg), rec.Events()
			}
			res1, ev1 := run()
			res2, ev2 := run()
			if !reflect.DeepEqual(res1, res2) {
				t.Fatalf("results differ:\n%+v\n%+v", res1, res2)
			}
			if len(ev1) != len(ev2) {
				t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
			}
			for i := range ev1 {
				if ev1[i] != ev2[i] {
					t.Fatalf("event %d differs:\n%+v\n%+v", i, ev1[i], ev2[i])
				}
			}
		})
	}
}

// TestRedundancySpotCostDiscount pins the billing side of spot pools: the
// same clone scheme on fully-spot capacity must cost strictly less than on
// on-demand capacity, and at most (1 - discount) of it, over the same trace.
func TestRedundancySpotCostDiscount(t *testing.T) {
	base := func() Config {
		return Config{
			Model:  model.MustByName("ResNet 50"),
			Trace:  shortAzure(15, 200, 2*time.Minute),
			Scheme: NewPaldiaCloneK(2, false),
		}
	}
	onDemand := Run(base())
	cfg := base()
	cfg.SpotDiscount = 0.65
	cfg.SpotFraction = 1
	spot := Run(cfg)
	if spot.Cost >= onDemand.Cost {
		t.Fatalf("spot cost %.4f not below on-demand %.4f", spot.Cost, onDemand.Cost)
	}
	// Fully-spot capacity with no revocation should cost exactly the
	// discounted rate; allow slack for float accumulation.
	want := onDemand.Cost * 0.35
	if diff := spot.Cost - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("spot cost %.6f, want %.6f (35%% of on-demand %.6f)", spot.Cost, want, onDemand.Cost)
	}
}
