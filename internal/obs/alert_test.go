package obs

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The headline observability demo: replay a trace with node-failure
// injection (cluster.Fail) and a tight error budget, and the multi-window
// burn-rate alert fires — then shows up in the hub's alert log, the state
// snapshot and the SSE feed.
func TestBurnAlertFiresUnderInjectedNodeFailures(t *testing.T) {
	plane := NewPlane(Options{
		Objective: 0.999, // 0.1% budget: an outage burns it orders of magnitude too fast
		Windows: []BurnWindow{
			{Name: "30s", Length: 30 * time.Second, Threshold: 14.4},
			{Name: "2m", Length: 2 * time.Minute, Threshold: 14.4},
		},
		Clock: NewFakeClock(),
	})
	// Subscribe with a buffer big enough for the whole replay's feed, so
	// every event — including the final done — is captured losslessly.
	sub := plane.Hub().Subscribe(1 << 17)

	res := core.Run(core.Config{
		Model:           model.MustByName("ResNet 50"),
		Trace:           trace.Azure(sim.NewRNG(42), 250, 2*time.Minute),
		Scheme:          core.NewPaldia(),
		Seed:            42,
		Telemetry:       plane.Sink(),
		SampleEvery:     time.Second,
		FailureEvery:    40 * time.Second,
		FailureDuration: 10 * time.Second,
	})
	plane.MarkDone()

	if res.FailuresInjected == 0 {
		t.Fatal("no failures injected; the scenario lost its outage")
	}
	alerts := plane.Hub().Alerts()
	var fired bool
	for _, a := range alerts {
		if a.Firing {
			fired = true
			if a.Burn["30s"] < 14.4 || a.Burn["2m"] < 14.4 {
				t.Errorf("firing alert below threshold in some window: %v", a.Burn)
			}
			if a.At == 0 {
				t.Error("firing alert carries no virtual timestamp")
			}
		}
	}
	if !fired {
		t.Fatalf("burn-rate alert never fired across the outage; alerts = %+v", alerts)
	}

	st := plane.Hub().Snapshot()
	if len(st.Alerts) != len(alerts) {
		t.Errorf("snapshot carries %d alerts, hub %d", len(st.Alerts), len(alerts))
	}
	if st.NodesFailed == 0 {
		t.Error("hub never counted a node-failed event")
	}

	// The alert also reached the SSE feed, losslessly.
	if st.FeedDropped != 0 {
		t.Fatalf("feed dropped %d events; buffer too small for the assertion below", st.FeedDropped)
	}
	names := make(map[string]int)
drain:
	for {
		select {
		case ev := <-sub.C:
			names[ev.Name]++
		default:
			break drain
		}
	}
	if names["alert"] == 0 {
		t.Errorf("no alert event on the SSE feed; saw %v", names)
	}
	if names["span"] == 0 {
		t.Errorf("no span events on the SSE feed; saw %v", names)
	}
	if names["done"] != 1 {
		t.Errorf("want exactly one done event, saw %v", names)
	}
}

// A clean run against the paper's defaults must stay quiet: no alert, burn
// far below the page threshold.
func TestBurnAlertStaysQuietOnHealthyRun(t *testing.T) {
	plane := NewPlane(Options{Clock: NewFakeClock()})
	core.Run(core.Config{
		Model:     model.MustByName("MobileNet"),
		Trace:     trace.Azure(sim.NewRNG(7), 100, time.Minute),
		Scheme:    core.NewPaldia(),
		Seed:      7,
		Telemetry: plane.Sink(),
	})
	if alerts := plane.Hub().Alerts(); len(alerts) != 0 {
		t.Fatalf("healthy run raised alerts: %+v", alerts)
	}
	if plane.Hub().Snapshot().BurnFiring {
		t.Fatal("healthy run left the burn alert firing")
	}
}
