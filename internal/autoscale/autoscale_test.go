package autoscale

import (
	"testing"
	"testing/quick"
	"time"
)

func TestReactiveContainers(t *testing.T) {
	cases := []struct{ n, bs, want int }{
		{0, 64, 1}, // time sharing still needs one container
		{1, 64, 1},
		{64, 64, 1},
		{65, 64, 2},
		{128, 64, 2},
		{300, 64, 5},
		{10, 0, 10}, // degenerate batch size treated as 1
	}
	for _, c := range cases {
		if got := ReactiveContainers(c.n, c.bs); got != c.want {
			t.Errorf("ReactiveContainers(%d, %d) = %d, want %d", c.n, c.bs, got, c.want)
		}
	}
}

// Property: reactive containers suffice — n_c * batchSize >= nSpatial.
func TestReactiveCoversLoadProperty(t *testing.T) {
	f := func(nRaw, bsRaw uint16) bool {
		n, bs := int(nRaw%5000), int(bsRaw%128)+1
		nc := ReactiveContainers(n, bs)
		return nc*bs >= n && nc >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictiveContainers(t *testing.T) {
	// 400 rps over a 100ms window = 40 requests, batch 16 -> 3 containers.
	if got := PredictiveContainers(400, 100*time.Millisecond, 16); got != 3 {
		t.Fatalf("got %d, want 3", got)
	}
	if got := PredictiveContainers(0, time.Second, 16); got != 1 {
		t.Fatalf("zero rate got %d, want 1 (always keep one)", got)
	}
}

func TestPredictiveContainersEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		rps    float64
		window time.Duration
		bs     int
		want   int
	}{
		// A forecaster extrapolating a negative trend can hand back a
		// negative rate; the pool floor is still one warm container.
		{"negative rate", -5, time.Second, 16, 1},
		{"zero rate", 0, time.Second, 16, 1},
		{"zero window", 100, 0, 16, 1},
		{"negative window", 100, -time.Second, 16, 1},
		// Sub-window load: half a request expected in the window still
		// needs the one warm container, not zero.
		{"fractional request", 5, 100 * time.Millisecond, 16, 1},
		// Fractional requests round *up*: 64.9 expected requests overflow
		// one batch of 64, so two containers — truncation would strand the
		// 65th request in a cold start.
		{"batch boundary overflow", 649, 100 * time.Millisecond, 64, 2},
		// Exactly one batch stays one container, including when the product
		// is only representable with float error (4.7*10 = 47.000...004):
		// representation noise must not fabricate a 48th request.
		{"exact batch", 640, 100 * time.Millisecond, 64, 1},
		{"float representation noise", 4.7, 10 * time.Second, 47, 1},
	}
	for _, c := range cases {
		if got := PredictiveContainers(c.rps, c.window, c.bs); got != c.want {
			t.Errorf("%s: PredictiveContainers(%v, %v, %d) = %d, want %d",
				c.name, c.rps, c.window, c.bs, got, c.want)
		}
	}
}

// Property: predictive containers cover the predicted window load the same
// way reactive containers cover observed load, for any non-negative rate.
func TestPredictiveCoversForecastProperty(t *testing.T) {
	f := func(rpsRaw uint16, bsRaw uint8) bool {
		rps, bs := float64(rpsRaw%2000), int(bsRaw%64)+1
		nc := PredictiveContainers(rps, time.Second, bs)
		// Covering within one request of the expected load: the epsilon
		// guard may round a float-noise fraction down, never a real request.
		return float64(nc*bs) >= rps-1 && nc >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
