package trace

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// curveCases builds every generator's curve at a small duration.
func curveCases(rng *sim.RNG) map[string]*Curve {
	return map[string]*Curve{
		"azure":     AzureCurve(rng, 400, 2*time.Minute),
		"wikipedia": WikipediaCurve(rng, 300, 1, WikipediaCompression),
		"twitter":   TwitterCurve(rng, 120, 2*time.Minute),
		"poisson":   PoissonCurve(rng, 200, 90*time.Second),
		"stable":    StableCurve(rng, 150, 90*time.Second),
	}
}

// TestCurveStreamMatchesRealize pins the tentpole's equivalence claim at the
// trace layer: for every generator, the lazy stream yields exactly the
// arrival sequence the materialized Realize produces, from the same seed.
func TestCurveStreamMatchesRealize(t *testing.T) {
	for name, c := range curveCases(sim.NewRNG(7)) {
		t.Run(name, func(t *testing.T) {
			mat := c.Realize(sim.NewRNG(7))
			got := Collect(c.Stream(sim.NewRNG(7)))
			if !reflect.DeepEqual(mat, got) {
				t.Fatalf("stream realization differs from materialized trace:\nmat %d arrivals, stream %d",
					len(mat.Arrivals), len(got.Arrivals))
			}
		})
	}
}

// TestGeneratorsUnchangedByCurveRefactor pins that the public generator
// functions still produce the same traces they did before the Curve split:
// Azure(rng, ...) must equal AzureCurve(rng, ...).Realize(rng), etc.
func TestGeneratorsUnchangedByCurveRefactor(t *testing.T) {
	rng := sim.NewRNG(11)
	cases := map[string]struct {
		direct  *Trace
		byCurve *Trace
	}{
		"azure":     {Azure(rng, 400, 2*time.Minute), AzureCurve(rng, 400, 2*time.Minute).Realize(rng)},
		"wikipedia": {Wikipedia(rng, 300, 1, WikipediaCompression), WikipediaCurve(rng, 300, 1, WikipediaCompression).Realize(rng)},
		"twitter":   {Twitter(rng, 120, 2*time.Minute), TwitterCurve(rng, 120, 2*time.Minute).Realize(rng)},
		"poisson":   {Poisson(rng, 200, time.Minute), PoissonCurve(rng, 200, time.Minute).Realize(rng)},
		"stable":    {Stable(rng, 150, time.Minute), StableCurve(rng, 150, time.Minute).Realize(rng)},
	}
	for name, c := range cases {
		if !reflect.DeepEqual(c.direct, c.byCurve) {
			t.Errorf("%s: generator and curve realization disagree", name)
		}
	}
}

// TestTraceStreamYieldsArrivals checks the materialized adapter: same
// arrivals, same duration, and Materialized round-trips.
func TestTraceStreamYieldsArrivals(t *testing.T) {
	tr := Poisson(sim.NewRNG(3), 100, time.Minute)
	s := tr.Stream()
	if got, ok := Materialized(s); !ok || got != tr {
		t.Fatalf("Materialized() = %v, %v; want the backing trace", got, ok)
	}
	got := Collect(tr.Stream())
	if !reflect.DeepEqual(got.Arrivals, tr.Arrivals) || got.Duration != tr.Duration {
		t.Fatal("TraceStream does not reproduce the trace")
	}
}

// TestInitRPSMatchesMaterializedSlice: both stream implementations must
// report the exact warm-start rate the materialized path computes, so a
// streaming run selects the same initial hardware.
func TestInitRPSMatchesMaterializedSlice(t *testing.T) {
	const window = 2 * time.Second
	for name, c := range curveCases(sim.NewRNG(13)) {
		t.Run(name, func(t *testing.T) {
			mat := c.Realize(sim.NewRNG(13))
			want := mat.Slice(0, window).MeanRPS()
			if got := c.Stream(sim.NewRNG(13)).InitRPS(window); got != want {
				t.Errorf("CurveStream.InitRPS = %v, want %v", got, want)
			}
			if got := mat.Stream().InitRPS(window); got != want {
				t.Errorf("TraceStream.InitRPS = %v, want %v", got, want)
			}
		})
	}
}

// TestInitRPSDoesNotConsume: InitRPS must leave the stream's own arrival
// sequence untouched.
func TestInitRPSDoesNotConsume(t *testing.T) {
	c := PoissonCurve(nil, 100, time.Minute)
	plain := Collect(c.Stream(sim.NewRNG(5)))
	s := c.Stream(sim.NewRNG(5))
	s.InitRPS(2 * time.Second)
	probed := Collect(s)
	if !reflect.DeepEqual(plain.Arrivals, probed.Arrivals) {
		t.Fatal("InitRPS consumed the stream")
	}
}

// TestCurveStreamBoundedBuffer: the stream's working set is one bucket of
// arrivals, independent of trace length.
func TestCurveStreamBoundedBuffer(t *testing.T) {
	long := PoissonCurve(nil, 500, 10*time.Minute)
	s := long.Stream(sim.NewRNG(1))
	maxBuf, n := 0, 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
		if len(s.buf) > maxBuf {
			maxBuf = len(s.buf)
		}
	}
	if n < 100000 {
		t.Fatalf("expected a large trace, got %d arrivals", n)
	}
	// 500 rps x 100 ms = 50 expected per bucket; allow generous Poisson slack.
	if maxBuf > 200 {
		t.Fatalf("per-bucket buffer reached %d arrivals; want bucket-bounded (~50)", maxBuf)
	}
}

// TestCurveStats sanity-checks the design-rate helpers used by -requests
// sizing.
func TestCurveStats(t *testing.T) {
	c := PoissonCurve(nil, 200, time.Minute)
	if m := c.MeanRPS(); math.Abs(m-200) > 1e-9 {
		t.Errorf("MeanRPS = %v, want 200", m)
	}
	if p := c.PeakRPS(); math.Abs(p-200) > 1e-9 {
		t.Errorf("PeakRPS = %v, want 200", p)
	}
	if e := c.ExpectedRequests(); math.Abs(e-12000) > 1e-6 {
		t.Errorf("ExpectedRequests = %v, want 12000", e)
	}
	if d := DurationForRequests(12000, 200); d != time.Minute {
		t.Errorf("DurationForRequests = %v, want 1m", d)
	}
	if d := DurationForRequests(0, 200); d != 0 {
		t.Errorf("DurationForRequests(0) = %v, want 0", d)
	}
}

// TestNamedCurve pins the trace-by-name builder to the generator it names,
// including each generator's default duration, and rejects unknown names.
func TestNamedCurve(t *testing.T) {
	rng := sim.NewRNG(5)
	cases := []struct {
		name string
		dur  time.Duration
		want *Curve
	}{
		{"azure", 0, AzureCurve(rng, 60, AzureDuration)},
		{"azure", 2 * time.Minute, AzureCurve(rng, 60, 2*time.Minute)},
		{"wikipedia", time.Minute, WikipediaCurve(rng, 60, 5, WikipediaCompression)},
		{"twitter", 0, TwitterCurve(rng, 60, TwitterDuration)},
		{"poisson", 0, PoissonCurve(rng, 60, 10*time.Minute)},
		{"stable", time.Minute, StableCurve(rng, 60, time.Minute)},
	}
	for _, c := range cases {
		got, err := NamedCurve(rng, c.name, 60, c.dur)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s dur=%v: curve %s differs from %s", c.name, c.dur, got.Name, c.want.Name)
		}
	}
	if _, err := NamedCurve(rng, "file:x.txt", 60, 0); err == nil {
		t.Error("NamedCurve accepted a file trace")
	}
}

// TestNamedCurveRejectsBadRateAndDuration pins NamedCurve's input checks for
// every generator: a negative, NaN or infinite rate and a negative duration
// are errors (they used to panic while sizing the realized trace), while a
// zero rate is legal and realizes to an empty trace.
func TestNamedCurveRejectsBadRateAndDuration(t *testing.T) {
	rows := []struct {
		rate float64
		dur  time.Duration
		msg  string
	}{
		{-5, time.Minute, "rate -5 rps"},
		{math.NaN(), time.Minute, "rate NaN rps"},
		{math.Inf(1), time.Minute, "rate +Inf rps"},
		{math.Inf(-1), time.Minute, "rate -Inf rps"},
		{60, -30 * time.Second, "duration -30s"},
		{60, -time.Nanosecond, "duration -1ns"},
	}
	for _, name := range []string{"azure", "wikipedia", "twitter", "poisson", "stable"} {
		for _, r := range rows {
			c, err := NamedCurve(sim.NewRNG(1), name, r.rate, r.dur)
			if err == nil || !strings.Contains(err.Error(), r.msg) {
				t.Errorf("NamedCurve(%s, %v, %v) = %v, %v; want an error mentioning %q", name, r.rate, r.dur, c, err, r.msg)
			}
		}
		c, err := NamedCurve(sim.NewRNG(1), name, 0, time.Minute)
		if err != nil {
			t.Fatalf("NamedCurve(%s, rate 0): %v", name, err)
		}
		if n := c.Realize(sim.NewRNG(1)).Count(); n != 0 {
			t.Errorf("NamedCurve(%s, rate 0) realized %d arrivals, want 0", name, n)
		}
	}
}
