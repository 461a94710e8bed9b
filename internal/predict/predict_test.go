package predict

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestEWMAConvergesToConstantRate(t *testing.T) {
	e := NewEWMA(time.Second)
	for i := 0; i < 50; i++ {
		e.Observe(time.Duration(i)*time.Second, 100)
	}
	if got := e.PredictRPS(0, 4*time.Second); math.Abs(got-100) > 1 {
		t.Fatalf("EWMA converged to %.1f, want 100", got)
	}
}

func TestEWMAAsymmetric(t *testing.T) {
	// Rises fast: after one surge observation the estimate should have
	// absorbed most of the jump; decays slower.
	up := NewEWMA(time.Second)
	up.Observe(0, 10)
	up.Observe(time.Second, 200)
	riseFrac := (up.Rate() - 10) / 190

	down := NewEWMA(time.Second)
	down.Observe(0, 200)
	down.Observe(time.Second, 10)
	fallFrac := (200 - down.Rate()) / 190

	if riseFrac <= fallFrac {
		t.Fatalf("rise fraction %.2f not above fall fraction %.2f", riseFrac, fallFrac)
	}
	if riseFrac < 0.5 {
		t.Fatalf("rise fraction %.2f too sluggish for surge tracking", riseFrac)
	}
}

func TestEWMAFirstObservationInitializes(t *testing.T) {
	e := NewEWMA(time.Second)
	e.Observe(0, 42)
	if e.Rate() != 42 {
		t.Fatalf("first observation gave %v, want 42", e.Rate())
	}
}

// Property: predictions are never negative and, on constant input, the
// estimate converges to the input with vanishing trend.
func TestEWMANonNegativeProperty(t *testing.T) {
	f := func(counts []uint16) bool {
		e := NewEWMA(time.Second)
		for i, c := range counts {
			e.Observe(time.Duration(i)*time.Second, int(c))
			if e.PredictRPS(0, 4*time.Second) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMATrendLeadsRamp(t *testing.T) {
	// During a steady ramp (the Azure surges build over tens of seconds),
	// the horizon forecast must lead the current level — that lead is what
	// lets hardware procurement (~4s) finish before the peak arrives.
	e := NewEWMA(time.Second)
	for i := 0; i <= 10; i++ {
		e.Observe(time.Duration(i)*time.Second, 20*i) // +20 rps per second
	}
	level := e.Rate()
	forecast := e.PredictRPS(10*time.Second, 4*time.Second)
	if forecast <= level {
		t.Fatalf("forecast %.0f does not lead level %.0f on a ramp", forecast, level)
	}
	future := 200.0 + 4*20 // true rate 4s later
	if math.Abs(forecast-future) > math.Abs(level-future) {
		t.Fatalf("forecast %.0f further from future %.0f than flat level %.0f",
			forecast, future, level)
	}
}

func TestEWMANoDownwardExtrapolation(t *testing.T) {
	// A collapsing rate must not forecast below the smoothed level
	// (conservatism against premature scale-down).
	e := NewEWMA(time.Second)
	for i := 0; i <= 10; i++ {
		e.Observe(time.Duration(i)*time.Second, 1000-90*i)
	}
	if e.PredictRPS(0, 4*time.Second) < e.Rate() {
		t.Fatal("negative trend was extrapolated")
	}
}

func TestClairvoyant(t *testing.T) {
	tr := trace.Poisson(sim.NewRNG(1), 100, time.Minute)
	c := NewClairvoyant(tr)
	got := c.PredictRPS(10*time.Second, 4*time.Second)
	if math.Abs(got-100) > 25 {
		t.Fatalf("clairvoyant predicted %.0f, want ~100", got)
	}
	if c.PredictRPS(0, 0) != 0 {
		t.Fatal("zero horizon should predict 0")
	}
}

func TestClairvoyantSeesFutureSurge(t *testing.T) {
	// A trace that is empty except for a surge at t=10s..11s.
	arr := make([]time.Duration, 500)
	for i := range arr {
		arr[i] = 10*time.Second + time.Duration(i)*2*time.Millisecond
	}
	tr := &trace.Trace{Name: "surge", Arrivals: arr, Duration: 20 * time.Second}
	c := NewClairvoyant(tr)
	if got := c.PredictRPS(9*time.Second, 4*time.Second); got < 100 {
		t.Fatalf("clairvoyant missed the surge: %.0f rps", got)
	}
	if got := c.PredictRPS(15*time.Second, 4*time.Second); got != 0 {
		t.Fatalf("clairvoyant hallucinated traffic: %.0f rps", got)
	}
}

func TestStatic(t *testing.T) {
	s := Static{RPS: 55}
	s.Observe(0, 99999)
	if s.PredictRPS(0, time.Second) != 55 {
		t.Fatal("static predictor moved")
	}
}

func TestWindowObserver(t *testing.T) {
	e := NewEWMA(time.Second)
	w := NewWindowObserver(e, time.Second)
	// 100 arrivals in window [0,1s), then silence.
	for i := 0; i < 100; i++ {
		w.Arrive(time.Duration(i) * 10 * time.Millisecond)
	}
	// Prediction at t=1s flushes the first window.
	got := w.PredictRPS(time.Second, 4*time.Second)
	if math.Abs(got-100) > 1e-9 {
		t.Fatalf("after first window predicted %.1f, want 100", got)
	}
	// After 5 silent windows the estimate must have decayed.
	got = w.PredictRPS(6*time.Second, 4*time.Second)
	if got >= 50 {
		t.Fatalf("after silence predicted %.1f, want decayed below 50", got)
	}
}

func TestWindowObserverFlushesMultipleWindows(t *testing.T) {
	e := NewEWMA(time.Second)
	w := NewWindowObserver(e, time.Second)
	w.Arrive(100 * time.Millisecond)
	// Jump 10 windows ahead: the gap must be observed as zeros.
	w.Arrive(10*time.Second + time.Millisecond)
	if r := w.PredictRPS(11*time.Second, time.Second); r > 1 {
		t.Fatalf("gap windows not flushed as zeros; rate %.2f", r)
	}
}

func TestWindowObserverObservedRPS(t *testing.T) {
	w := NewWindowObserver(Static{}, 500*time.Millisecond)
	if r := w.ObservedRPS(400 * time.Millisecond); r != 0 {
		t.Fatalf("rate before the first window completes = %v, want 0", r)
	}
	// 30 arrivals in [0,500ms), 10 in [500ms,1s).
	for i := 0; i < 30; i++ {
		w.Arrive(time.Duration(i) * 10 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		w.Arrive(500*time.Millisecond + time.Duration(i)*40*time.Millisecond)
	}
	// The window in progress does not count: the last completed one does.
	if r := w.ObservedRPS(999 * time.Millisecond); r != 60 {
		t.Fatalf("rate at 999ms = %v, want 60 (first window)", r)
	}
	if r := w.ObservedRPS(time.Second); r != 20 {
		t.Fatalf("rate at 1s = %v, want 20 (second window)", r)
	}
	// Silence decays the rate once a whole empty window has passed.
	if r := w.ObservedRPS(1500 * time.Millisecond); r != 0 {
		t.Fatalf("rate after a silent window = %v, want 0", r)
	}
}
