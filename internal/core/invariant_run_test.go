package core

import (
	"testing"
	"time"

	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// TestRunCleanUnderInvariants runs representative single-workload scenarios
// with the full invariant checker attached and demands zero violations: the
// laws hold on the happy path, under node failures, under exhaustion-level
// load, and with scale-out.
func TestRunCleanUnderInvariants(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"paldia", func() Config {
			return Config{
				Model:  model.MustByName("ResNet 50"),
				Trace:  shortAzure(1, 200, 2*time.Minute),
				Scheme: NewPaldia(),
			}
		}},
		{"failures", func() Config {
			return Config{
				Model:           model.MustByName("DenseNet 121"),
				Trace:           shortAzure(3, 225, 3*time.Minute),
				Scheme:          NewPaldia(),
				FailureEvery:    time.Minute,
				FailureDuration: time.Minute,
			}
		}},
		{"cost-baseline", func() Config {
			return Config{
				Model:  model.MustByName("SENet 18"),
				Trace:  shortAzure(7, 150, 2*time.Minute),
				Scheme: NewINFlessLlamaCost(),
			}
		}},
		{"scale-out", func() Config {
			return Config{
				Model:    model.MustByName("GoogleNet"),
				Trace:    shortAzure(8, 450, 2*time.Minute),
				Scheme:   NewPaldia(),
				MaxNodes: 3,
			}
		}},
		{"uniform-batching", func() Config {
			return Config{
				Model:           model.MustByName("ResNet 50"),
				Trace:           shortAzure(5, 200, 2*time.Minute),
				Scheme:          NewPaldia(),
				UniformBatching: true,
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chk := invariant.New()
			cfg := tc.cfg()
			cfg.Invariants = chk
			Run(cfg)
			if err := chk.Err(); err != nil {
				t.Fatalf("invariant violations (%d total):\n%v", chk.Total(), err)
			}
		})
	}
}

// TestRunCleanUnderInvariantsWithTelemetry checks the checker coexists with a
// user telemetry sink and sampling (the Combine path) without violations.
func TestRunCleanUnderInvariantsWithTelemetry(t *testing.T) {
	chk := invariant.New()
	rec := telemetry.NewRecorder()
	Run(Config{
		Model:       model.MustByName("ResNet 50"),
		Trace:       shortAzure(2, 200, time.Minute),
		Scheme:      NewPaldia(),
		Telemetry:   rec,
		SampleEvery: time.Second,
		Invariants:  chk,
	})
	if err := chk.Err(); err != nil {
		t.Fatalf("invariant violations with telemetry attached:\n%v", err)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("user sink starved by the checker")
	}
}

// TestRunCleanUnderInvariantsWithoutLifecycle attaches the checker next to a
// sink that declines lifecycle events: no lifecycle event is emitted at all,
// the checker audits every request from its span, and the run is clean —
// plain, cloned and hedged, under node failures and spot revocation.
func TestRunCleanUnderInvariantsWithoutLifecycle(t *testing.T) {
	for _, scheme := range []Scheme{NewPaldia(), NewPaldiaCloneK(2, false), NewPaldiaCloneK(3, true), NewPaldiaHedged(90)} {
		chk := invariant.New()
		sink := &spanOnlySink{}
		res := Run(Config{
			Model:        model.MustByName("ResNet 50"),
			Trace:        shortAzure(6, 200, time.Minute),
			Scheme:       scheme,
			Telemetry:    sink,
			FailureEvery: 20 * time.Second, FailureDuration: 5 * time.Second,
			SpotDiscount: 0.65, SpotFraction: 0.5,
			RevokeEvery: 25 * time.Second, RevokeNotice: time.Second,
			Invariants: chk,
		})
		if err := chk.Err(); err != nil {
			t.Errorf("%s: invariant violations without lifecycle events:\n%v", scheme.Name(), err)
		}
		if sink.lifecycle != 0 {
			t.Errorf("%s: %d lifecycle events emitted with only span consumers attached", scheme.Name(), sink.lifecycle)
		}
		if sink.spans != res.Requests || res.Requests == 0 {
			t.Errorf("%s: %d spans for %d requests", scheme.Name(), sink.spans, res.Requests)
		}
	}
}

// TestRunMultiCleanUnderInvariants attaches the checker to a multi-tenant
// run.
func TestRunMultiCleanUnderInvariants(t *testing.T) {
	chk := invariant.New()
	RunMulti(MultiConfig{
		Workloads: []Workload{
			{Model: model.MustByName("ResNet 50"), Trace: shortAzure(1, 120, time.Minute)},
			{Model: model.MustByName("SENet 18"), Trace: shortAzure(2, 120, time.Minute)},
		},
		Scheme:     NewPaldia(),
		Invariants: chk,
	})
	if err := chk.Err(); err != nil {
		t.Fatalf("invariant violations in multi-tenant run:\n%v", err)
	}
}

// TestInvariantDetectsDoctoredResult is the end-to-end mutation test for the
// conservation law: feed CheckResult a Result whose FailedRequests was
// tampered with and demand the checker fires. This proves the reconciliation
// is live — a checker that never fires proves nothing.
func TestInvariantDetectsDoctoredResult(t *testing.T) {
	chk := invariant.New()
	cfg := Config{
		Model:           model.MustByName("DenseNet 121"),
		Trace:           shortAzure(3, 225, 3*time.Minute),
		Scheme:          NewPaldia(),
		FailureEvery:    time.Minute,
		FailureDuration: time.Minute,
	}
	cfg.Invariants = chk
	res := Run(cfg)
	if err := chk.Err(); err != nil {
		t.Fatalf("run itself must be clean first:\n%v", err)
	}
	if res.FailedRequests == 0 {
		t.Skip("failure scenario produced no failed requests; mutation has no target")
	}
	before := chk.Total()
	// A lost decrement on the failed-request counter must be caught.
	chk.CheckResult(2*time.Hour, res.Requests, res.FailedRequests-1, res.FailuresInjected)
	if chk.Total() == before {
		t.Fatal("doctored FailedRequests not detected")
	}
	assertLaw(t, chk, invariant.LawConservation)
}

// TestFailedRequestsMatchFailedEvents pins Result.FailedRequests to the
// telemetry stream: the count of distinct requests with a Failed event must
// equal the result counter, for a scenario that actually fails requests.
func TestFailedRequestsMatchFailedEvents(t *testing.T) {
	rec := telemetry.NewRecorder()
	res := Run(Config{
		Model:           model.MustByName("DenseNet 121"),
		Trace:           shortAzure(3, 225, 3*time.Minute),
		Scheme:          NewPaldia(),
		FailureEvery:    time.Minute,
		FailureDuration: time.Minute,
		Telemetry:       rec,
		Invariants:      invariant.New(),
	})
	failed := map[int64]bool{}
	for _, e := range rec.Events() {
		if e.Kind == telemetry.Failed && e.Req >= 0 {
			failed[e.Req] = true
		}
	}
	if len(failed) != res.FailedRequests {
		t.Fatalf("telemetry saw %d failed requests, Result says %d",
			len(failed), res.FailedRequests)
	}
	if res.FailuresInjected == 0 {
		t.Fatal("scenario injected no failures; the test premise is wrong")
	}
}

// assertLaw fails the test unless at least one recorded violation belongs to
// the given law family.
func assertLaw(t *testing.T, chk *invariant.Checker, law string) {
	t.Helper()
	for _, v := range chk.Violations() {
		if v.Law == law {
			return
		}
	}
	t.Fatalf("no %s violation recorded; got %v", law, chk.Violations())
}
