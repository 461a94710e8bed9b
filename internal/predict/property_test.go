package predict

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// The tests in this file are metamorphic properties of the forecasters —
// relations between paired runs rather than golden outputs — and, in the
// invariant-checker tradition, each property is proven falsifiable: a
// deliberately broken variant (a mutant) must trip exactly the check that
// the real implementation passes. A property no mutant can fail is not
// testing anything.

const propWindow = 500 * time.Millisecond

// planted builds a strictly periodic count signal: period P windows, mean
// base counts, amplitude amp. Periodicity is exact (v[i] == v[i+P]) so the
// shift-invariance relation below holds with equality.
func planted(period, base, amp int) func(i int) int {
	return func(i int) int {
		phase := 2 * math.Pi * float64(i%period) / float64(period)
		return base + int(math.Round(float64(amp)*math.Sin(phase)))
	}
}

// feed runs the signal's first n windows through f.
func feed(f Forecaster, signal func(i int) int, from, n int) {
	for i := from; i < from+n; i++ {
		f.Observe(time.Duration(i+1)*propWindow, signal(i))
	}
}

// --- time-shift invariance ---------------------------------------------------

// shiftDiff measures the worst forecast disagreement between a model warmed
// on n windows of a periodic signal and a model warmed on n + period windows
// of the same signal (one extra whole period). Both end at the same signal
// phase having seen identical values, so a phase-keyed forecaster must
// produce identical forecasts; only absolute-time leakage can separate them.
func shiftDiff(mk func() Forecaster, signal func(i int) int, n, period, probes int) float64 {
	a, b := mk(), mk()
	feed(a, signal, 0, n)
	feed(b, signal, 0, n+period)
	worst := 0.0
	for k := 0; k < probes; k++ {
		// Continue both in lockstep (same phase) and compare forecasts at a
		// few horizons each step.
		for _, h := range []time.Duration{propWindow, 10 * propWindow, 30 * time.Second} {
			pa := a.PredictRPS(time.Duration(n+k)*propWindow, h)
			pb := b.PredictRPS(time.Duration(n+period+k)*propWindow, h)
			if d := math.Abs(pa - pb); d > worst {
				worst = d
			}
		}
		a.Observe(time.Duration(n+k+1)*propWindow, signal(n+k))
		b.Observe(time.Duration(n+period+k+1)*propWindow, signal(n+period+k))
	}
	return worst
}

// countDrifter leaks absolute time into the forecast: the mutation a
// phase-keying bug (indexing seasonal state by wall time or ring position
// instead of window number mod period) would produce.
type countDrifter struct {
	inner Forecaster
	cnt   int
}

func (m *countDrifter) Observe(now time.Duration, count int) { m.cnt++; m.inner.Observe(now, count) }
func (m *countDrifter) PredictRPS(now, horizon time.Duration) float64 {
	return m.inner.PredictRPS(now, horizon) + 0.001*float64(m.cnt)
}

func TestShiftInvarianceOnPeriodicInput(t *testing.T) {
	const period = 64
	signal := planted(period, 100, 60)
	// Warm-up covers several periods and several refit passes, so the
	// seasonal model is locked in both runs.
	n := 6 * seasonalRefitEvery
	for _, tc := range []struct {
		name string
		mk   func() Forecaster
	}{
		{"ewma", func() Forecaster { return NewEWMA(propWindow) }},
		{"seasonal", func() Forecaster { return NewSeasonal(propWindow) }},
		{"percentile", func() Forecaster { return NewPercentile(propWindow, 0.95) }},
	} {
		if d := shiftDiff(tc.mk, signal, n, period, 2*period); d > 1e-9 {
			t.Errorf("%s: forecasts drift %.3g across a whole-period shift", tc.name, d)
		}
	}
	// The seasonal run above must actually exercise the seasonal path.
	s := NewSeasonal(propWindow)
	feed(s, signal, 0, n)
	if s.Period() == 0 {
		t.Fatal("seasonal never locked during the shift-invariance run; property tested nothing")
	}
	// Mutation: absolute-time leakage must be caught by the same check.
	mut := func() Forecaster { return &countDrifter{inner: NewEWMA(propWindow)} }
	if d := shiftDiff(mut, signal, n, period, 2*period); d <= 1e-9 {
		t.Error("mutant leaking absolute time passed the shift-invariance check")
	}
}

// --- scale equivariance ------------------------------------------------------

// scaleDiff measures the worst relative violation of PredictRPS(2x input) ==
// 2 * PredictRPS(input) on a steep ramp plus seasonal swing (steep so the
// EWMA trend gate is open in both runs; the gate is the one deliberate
// nonlinearity).
func scaleDiff(mk func() Forecaster, probes int) float64 {
	signal := func(i int) int { return 40 + 4*i + planted(64, 0, 20)(i) }
	doubled := func(i int) int { return 2 * signal(i) }
	a, b := mk(), mk()
	n := 6 * seasonalRefitEvery
	feed(a, signal, 0, n)
	feed(b, doubled, 0, n)
	worst := 0.0
	for k := 0; k < probes; k++ {
		for _, h := range []time.Duration{propWindow, 15 * time.Second} {
			pa := a.PredictRPS(time.Duration(n+k)*propWindow, h)
			pb := b.PredictRPS(time.Duration(n+k)*propWindow, h)
			if pa == 0 && pb == 0 {
				continue
			}
			if d := math.Abs(pb-2*pa) / math.Max(2*pa, 1); d > worst {
				worst = d
			}
		}
		a.Observe(time.Duration(n+k+1)*propWindow, signal(n+k))
		b.Observe(time.Duration(n+k+1)*propWindow, doubled(n+k))
	}
	return worst
}

// affineOffset breaks linearity the way a hard-coded floor or headroom
// constant inside a forecaster would.
type affineOffset struct{ inner Forecaster }

func (m affineOffset) Observe(now time.Duration, count int) { m.inner.Observe(now, count) }
func (m affineOffset) PredictRPS(now, horizon time.Duration) float64 {
	return m.inner.PredictRPS(now, horizon) + 25
}

func TestScaleEquivariance(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Forecaster
		tol  float64
	}{
		// EWMA's trend noise gate scales with sqrt(rate), not rate, so the
		// property holds only approximately near the gate; the steep ramp
		// keeps the violation far below this tolerance.
		{"ewma", func() Forecaster { return NewEWMA(propWindow) }, 1e-6},
		{"seasonal", func() Forecaster { return NewSeasonal(propWindow) }, 1e-6},
		{"percentile", func() Forecaster { return NewPercentile(propWindow, 0.95) }, 1e-9},
	} {
		if d := scaleDiff(tc.mk, 64); d > tc.tol {
			t.Errorf("%s: doubling the input does not double the forecast (rel err %.3g)", tc.name, d)
		}
	}
	mut := func() Forecaster { return affineOffset{inner: NewEWMA(propWindow)} }
	if d := scaleDiff(mut, 64); d <= 1e-6 {
		t.Error("affine-offset mutant passed the scale-equivariance check")
	}
}

// --- constant-input fixed point ----------------------------------------------

// fixedPointErr feeds a constant count long enough for transients to die and
// returns the relative forecast error against the true constant rate.
func fixedPointErr(f Forecaster, count int, horizons []time.Duration) float64 {
	n := 6 * seasonalRefitEvery
	for i := 0; i < n; i++ {
		f.Observe(time.Duration(i+1)*propWindow, count)
	}
	want := float64(count) / propWindow.Seconds()
	worst := 0.0
	for _, h := range horizons {
		got := f.PredictRPS(time.Duration(n)*propWindow, h)
		if d := math.Abs(got-want) / want; d > worst {
			worst = d
		}
	}
	return worst
}

// overshooter scales forecasts up 1% — the mutation a lingering headroom
// factor or a trend term that never fully decays would produce.
type overshooter struct{ inner Forecaster }

func (m overshooter) Observe(now time.Duration, count int) { m.inner.Observe(now, count) }
func (m overshooter) PredictRPS(now, horizon time.Duration) float64 {
	return 1.01 * m.inner.PredictRPS(now, horizon)
}

func TestConstantInputFixedPoint(t *testing.T) {
	horizons := []time.Duration{propWindow, 4 * time.Second, 15 * time.Second}
	for _, tc := range []struct {
		name string
		f    Forecaster
	}{
		{"ewma", NewEWMA(propWindow)},
		{"seasonal", NewSeasonal(propWindow)},
		{"percentile", NewPercentile(propWindow, 0.95)},
		{"p99", NewPercentile(propWindow, 0.99)},
	} {
		if d := fixedPointErr(tc.f, 80, horizons); d > 1e-6 {
			t.Errorf("%s: constant 80/window input forecasts with rel err %.3g", tc.name, d)
		}
	}
	if d := fixedPointErr(overshooter{inner: NewEWMA(propWindow)}, 80, horizons); d <= 1e-6 {
		t.Error("one-percent-overshoot mutant passed the fixed-point check")
	}
}

// --- planted-period recovery -------------------------------------------------

// recoveredPeriod warms a fresh seasonal model on a planted period — at
// least five full cycles, so large periods get the same evidence small ones
// do — and returns what detection locked onto (0 = no fit).
func recoveredPeriod(planted int) int {
	s := NewSeasonal(propWindow)
	signal := func(i int) int {
		phase := 2 * math.Pi * float64(i%planted) / float64(planted)
		// A second harmonic makes the shape non-sinusoidal — detection must
		// find the fundamental, not a harmonic artifact.
		return 120 + int(math.Round(70*math.Sin(phase)+20*math.Sin(2*phase)))
	}
	n := 8 * seasonalRefitEvery
	if min := 5 * planted; n < min {
		n = (min/seasonalRefitEvery + 1) * seasonalRefitEvery
	}
	feed(s, signal, 0, n)
	return s.Period()
}

func TestPlantedPeriodRecovered(t *testing.T) {
	for _, period := range []int{48, 100, 300, 600} {
		got := recoveredPeriod(period)
		if got < period-1 || got > period+1 {
			t.Errorf("planted period %d: detected %d, want within one window", period, got)
		}
	}
	// Mutation: corrupt a locked fit's period by a few windows; the same
	// tolerance must reject it, proving the assertion can fail.
	s := NewSeasonal(propWindow)
	feed(s, planted(100, 120, 70), 0, 8*seasonalRefitEvery)
	if s.Period() == 0 {
		t.Fatal("setup: planted period not detected")
	}
	s.period += 5
	if got, want := s.Period(), 100; got >= want-1 && got <= want+1 {
		t.Error("corrupted period passed the recovery tolerance")
	}
}

// TestAperiodicInputRejected: period detection must refuse to fit signals
// with no true period — a constant, and an unsmoothed random walk (the
// mutant traffic that spurious-fit bugs feed on).
func TestAperiodicInputRejected(t *testing.T) {
	s := NewSeasonal(propWindow)
	feed(s, func(int) int { return 50 }, 0, 8*seasonalRefitEvery)
	if p := s.Period(); p != 0 {
		t.Errorf("constant input fitted period %d, want no fit", p)
	}

	// A deterministic pseudo-random walk: step by a hash-derived +-1..4.
	walk := 200
	rw := func(i int) int {
		h := uint64(i)*0x9e3779b97f4a7c15 + 12345
		h ^= h >> 29
		step := int(h%9) - 4
		walk += step
		if walk < 0 {
			walk = 0
		}
		return walk
	}
	s2 := NewSeasonal(propWindow)
	feed(s2, rw, 0, 8*seasonalRefitEvery)
	if p := s2.Period(); p != 0 {
		t.Errorf("random walk fitted period %d, want no fit", p)
	}
}

// --- percentile monotonicity -------------------------------------------------

// monotoneInP checks Quantile over a fixed observation set is monotone in p
// for the given quantile function: over random p pairs, and over every
// adjacent pair of the grid p = k/4096, which visits each gap between order
// statistics several times (random pairs alone can miss a backwards step
// inside one gap).
func monotoneInP(q func(p float64) float64) bool {
	f := func(p1Raw, p2Raw uint16) bool {
		p1 := float64(p1Raw) / 65535
		p2 := float64(p2Raw) / 65535
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return q(p1) <= q(p2)+1e-12
	}
	if quick.Check(f, &quick.Config{MaxCount: 300}) != nil {
		return false
	}
	const grid = 4096
	for k := 0; k < grid; k++ {
		if q(float64(k)/grid) > q(float64(k+1)/grid)+1e-12 {
			return false
		}
	}
	return true
}

func TestPercentileMonotoneInP(t *testing.T) {
	f := NewPercentile(propWindow, 0.95)
	// Irregular, duplicated, bursty observations; more than History windows
	// so the ring wraps.
	for i := 0; i < 300; i++ {
		f.Observe(time.Duration(i+1)*propWindow, (i*i)%97+(i%7)*40)
	}
	if !monotoneInP(func(p float64) float64 { return f.Quantile(p, time.Second) }) {
		t.Error("Quantile is not monotone in p")
	}
	// Mutation: flip the interpolation direction between order statistics —
	// the classic off-by-one a quantile implementation can ship with.
	broken := func(p float64) float64 {
		m := f.cnt
		if m > f.History {
			m = f.History
		}
		s := f.scratch[:m]
		copy(s, f.ring[:m])
		sortFloats(s)
		if p <= 0 {
			return s[0]
		}
		if p >= 1 {
			return s[m-1]
		}
		pos := p * float64(m-1)
		i := int(pos)
		frac := pos - float64(i)
		if i+1 >= m {
			return s[m-1]
		}
		return s[i+1] - frac*(s[i+1]-s[i]) // interpolates backwards
	}
	if monotoneInP(broken) {
		t.Error("backwards-interpolation mutant passed the monotonicity check")
	}
}

// sortFloats is a tiny insertion sort so the mutant above cannot disturb the
// real implementation's scratch-sorting path.
func sortFloats(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// --- confidence contracts ----------------------------------------------------

// TestConfidenceContracts pins the confidence semantics the procurement gate
// relies on: baseline models are fully confident, the percentile model warms
// up from zero, and the helper defaults to 1 for models without the
// extension.
func TestConfidenceContracts(t *testing.T) {
	if c := Confidence(NewEWMA(propWindow)); c != 1 {
		t.Errorf("EWMA confidence = %v, want 1", c)
	}
	if c := Confidence(Static{RPS: 5}); c != 1 {
		t.Errorf("Static (no extension) confidence = %v, want 1", c)
	}
	p := NewPercentile(propWindow, 0.95)
	if c := Confidence(p); c != 0 {
		t.Errorf("empty percentile confidence = %v, want 0", c)
	}
	feed(p, func(int) int { return 10 }, 0, DefaultPercentileHistory)
	if c := Confidence(p); c != 1 {
		t.Errorf("warm percentile confidence = %v, want 1", c)
	}
	s := NewSeasonal(propWindow)
	feed(s, planted(64, 100, 60), 0, 6*seasonalRefitEvery)
	if s.Period() == 0 {
		t.Fatal("seasonal did not lock")
	}
	if c := Confidence(s); c < ConfidenceFloor || c > 1 {
		t.Errorf("locked seasonal confidence = %v, want in [%v, 1]", c, ConfidenceFloor)
	}
}
