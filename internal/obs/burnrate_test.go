package obs

import (
	"math"
	"testing"
	"time"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

// One hot window: burn = badFraction / errorBudget, and the alert fires and
// resolves as the window fills and then expires.
func TestBurnTrackerRateAndTransitions(t *testing.T) {
	var alerts []Alert
	tr := NewBurnTracker(0.9, []BurnWindow{{Name: "10s", Length: 10 * time.Second, Threshold: 2}},
		func(a Alert) { alerts = append(alerts, a) })

	// 10 outcomes at t=1s, half bad: burn = (5/10) / 0.1 = 5.
	for i := 0; i < 10; i++ {
		tr.Observe(sec(1), i%2 == 0)
	}
	if got := tr.Burn()["10s"]; math.Abs(got-5) > 1e-9 {
		t.Fatalf("burn = %v, want 5", got)
	}
	if !tr.Firing() {
		t.Fatal("burn 5 >= threshold 2 should fire")
	}
	if len(alerts) != 1 || !alerts[0].Firing {
		t.Fatalf("want one firing alert, got %+v", alerts)
	}
	if alerts[0].Burn["10s"] < 2 {
		t.Fatalf("alert should carry the hot burn rate, got %v", alerts[0].Burn)
	}

	// Quiet time expires the window: burn decays to 0 and the alert resolves.
	tr.Tick(sec(30))
	if got := tr.Burn()["10s"]; got != 0 {
		t.Fatalf("burn after expiry = %v, want 0", got)
	}
	if tr.Firing() {
		t.Fatal("alert should have resolved after the window emptied")
	}
	if len(alerts) != 2 || alerts[1].Firing {
		t.Fatalf("want firing then resolved, got %+v", alerts)
	}
}

// The combined rule is AND across windows: a short spike that only heats the
// fast window must not fire.
func TestBurnTrackerNeedsEveryWindow(t *testing.T) {
	tr := NewBurnTracker(0.99, []BurnWindow{
		{Name: "5s", Length: 5 * time.Second, Threshold: 2},
		{Name: "60s", Length: 60 * time.Second, Threshold: 2},
	}, nil)

	// 55s of clean traffic, then one bad second: the 5s window burns hot
	// (1 bad / 1 total => burn 100) but the 60s window holds 1/56.
	for s := 0; s < 55; s++ {
		tr.Observe(sec(s), false)
	}
	tr.Observe(sec(55), true)
	b := tr.Burn()
	if b["5s"] < 2 {
		t.Fatalf("fast window should be hot, burn = %v", b)
	}
	if b["60s"] >= 2 {
		t.Fatalf("slow window should be cool, burn = %v", b)
	}
	if tr.Firing() {
		t.Fatal("AND rule must not fire on a fast-window-only spike")
	}
}

// Outcomes older than the newest bucket fold into it rather than landing in
// a ring slot that the expiry sweep would never reclaim; once the window
// rolls past, the sums return exactly to zero.
func TestBurnTrackerLateOutcomesFoldForward(t *testing.T) {
	tr := NewBurnTracker(0.99, []BurnWindow{{Name: "10s", Length: 10 * time.Second, Threshold: 1e18}}, nil)
	tr.Observe(sec(100), true)
	tr.Observe(sec(3), true) // straggler far older than the ring
	if got := tr.Burn()["10s"]; math.Abs(got-100) > 1e-9 {
		t.Fatalf("burn with both outcomes in window = %v, want 100 (2/2 bad, budget 1%%)", got)
	}
	tr.Tick(sec(500))
	if got := tr.Burn()["10s"]; got != 0 {
		t.Fatalf("burn after rolling far past = %v, want exactly 0 (no residue)", got)
	}
}

// Cycling the ring many times over keeps window sums exact.
func TestBurnTrackerRingReuseStaysExact(t *testing.T) {
	tr := NewBurnTracker(0.5, []BurnWindow{{Name: "5s", Length: 5 * time.Second, Threshold: 1e18}}, nil)
	// 1000 seconds, one good outcome each: the window always holds 5 good.
	for s := 0; s < 1000; s++ {
		tr.Observe(sec(s), false)
		if got := tr.Burn()["5s"]; got != 0 {
			t.Fatalf("t=%ds: burn = %v, want 0", s, got)
		}
	}
	// Now one bad: the 5-bucket window holds 4 good + 1 bad => (1/5)/0.5.
	tr.Observe(sec(1000), true)
	want := (1.0 / 5.0) / 0.5
	if got := tr.Burn()["5s"]; math.Abs(got-want) > 1e-9 {
		t.Fatalf("burn = %v, want %v", got, want)
	}
}

func TestDefaultBurnWindows(t *testing.T) {
	ws := DefaultBurnWindows()
	if len(ws) != 2 || ws[0].Name != "5m" || ws[1].Name != "1h" {
		t.Fatalf("unexpected defaults: %+v", ws)
	}
	for _, w := range ws {
		if w.Threshold != 14.4 {
			t.Fatalf("window %s threshold = %v, want the 14.4 page threshold", w.Name, w.Threshold)
		}
	}
}
