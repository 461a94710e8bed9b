package trace

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// AzurePeakToMean is the peak:mean ratio of the paper's Azure serverless
// trace sample (~673:55).
const AzurePeakToMean = 673.0 / 55.0

// AzureDuration is the paper's Azure sample length (~25 minutes).
const AzureDuration = 25 * time.Minute

// Azure synthesizes the paper's Azure serverless sample: mostly sparse,
// slowly wandering background traffic punctuated by a handful of short,
// violent surges, scaled so the peak (over 1 s windows) targets peakRPS and
// the resulting peak:mean ratio is close to 673:55.
func Azure(rng *sim.RNG, peakRPS float64, dur time.Duration) *Trace {
	return AzureCurve(rng, peakRPS, dur).Realize(rng)
}

// AzureCurve builds the Azure rate curve without realizing it; Stream it for
// a constant-memory arrival source or Realize it for the full Trace.
func AzureCurve(rng *sim.RNG, peakRPS float64, dur time.Duration) *Curve {
	return azureCurve(rng, peakRPS, dur, addSurge)
}

// azureCurve is AzureCurve with the surge-adding step as a parameter, so
// tests can build the same curve with a reference implementation of it.
func azureCurve(rng *sim.RNG, peakRPS float64, dur time.Duration,
	addSurge func(rates []float64, start, ramp, plateau, height float64)) *Curve {
	name := fmt.Sprintf("azure(peak=%.0f,dur=%v)", peakRPS, dur)
	r := rng.Stream("curve/" + name)
	n := int(dur / curveBucket)
	rates := make([]float64, n)

	// Background: a lognormal random walk around 0.8, clamped — "relatively
	// stable and sparse request traffic".
	level := 0.8
	for i := range rates {
		level *= math.Exp(r.NormFloat64() * 0.01)
		if level < 0.4 {
			level = 0.4
		}
		if level > 1.6 {
			level = 1.6
		}
		rates[i] = level
	}

	// Surges: request bursts whose peak dwarfs the background. Each is a
	// trapezoid — traffic builds over tens of seconds, holds, and subsides —
	// matching the minute-scale surge dynamics of the Azure trace (and
	// giving predictive schemes something an EWMA can actually lead, while
	// still overwhelming purely reactive ones mid-ramp). The surge count
	// scales with duration (2..4 per 25 minutes); the surge time fraction
	// stays small so the peak:mean ratio stays large.
	per25 := dur.Seconds() / AzureDuration.Seconds()
	nSurges := int(float64(2+r.Intn(3))*per25 + 0.5)
	if nSurges < 1 {
		nSurges = 1
	}
	sec := float64(time.Second) / float64(curveBucket)
	for s := 0; s < nSurges; s++ {
		ramp := (15 + r.Float64()*10) * sec    // 15–25 s rise and fall
		plateau := (10 + r.Float64()*30) * sec // 10–40 s hold
		start := r.Float64() * (float64(n) - 2*ramp - plateau)
		if start < 0 {
			start = 0
		}
		height := (0.5 + 0.5*r.Float64()) * AzurePeakToMean * 1.1
		addSurge(rates, start, ramp, plateau, height)
	}

	// Scale so the realized peak hits the target; the mean then follows the
	// designed ratio.
	scaleToPeak(rates, peakRPS)
	return &Curve{Name: name, Rates: rates, Bucket: curveBucket}
}

// addSurge adds one trapezoidal surge of the given height to rates: rising
// over ramp buckets from bucket start, holding for plateau, falling over
// ramp. Only the buckets the surge covers, [ceil(start), floor(start +
// 2*ramp + plateau)], are visited — widened by one on each side so float
// rounding can never drop one, with the exact boundary test kept inside —
// so a curve costs O(buckets + surge lengths), not O(buckets x surges):
// the surge count grows with the duration.
func addSurge(rates []float64, start, ramp, plateau, height float64) {
	lo := max(int(math.Ceil(start))-1, 0)
	hi := min(int(math.Floor(start+2*ramp+plateau))+1, len(rates)-1)
	for i := lo; i <= hi; i++ {
		x := float64(i)
		var f float64
		switch {
		case x < start || x > start+2*ramp+plateau:
			continue
		case x < start+ramp:
			f = (x - start) / ramp
		case x < start+ramp+plateau:
			f = 1
		default:
			f = (start + 2*ramp + plateau - x) / ramp
		}
		rates[i] += height * f
	}
}

// WikipediaCompression is the default time compression applied to the 5-day
// Wikipedia trace so simulations stay tractable: 48x turns 5 days into 2.5
// simulated hours while keeping every period long relative to the
// schedulers' time constants (seconds to minutes).
const WikipediaCompression = 48

// Wikipedia synthesizes the 5-day diurnal Wikipedia trace (peak scaled to
// peakRPS, ~16 h of high traffic per day), time-compressed by the given
// factor (>= 1).
func Wikipedia(rng *sim.RNG, peakRPS float64, days int, compression int) *Trace {
	return WikipediaCurve(rng, peakRPS, days, compression).Realize(rng)
}

// WikipediaCurve builds the diurnal Wikipedia rate curve without realizing it.
func WikipediaCurve(rng *sim.RNG, peakRPS float64, days int, compression int) *Curve {
	if compression < 1 {
		compression = 1
	}
	name := fmt.Sprintf("wikipedia(peak=%.0f,days=%d,c=%d)", peakRPS, days, compression)
	r := rng.Stream("curve/" + name)
	dur := time.Duration(days) * 24 * time.Hour / time.Duration(compression)
	n := int(dur / curveBucket)
	rates := make([]float64, n)
	dayBuckets := float64(24*time.Hour) / float64(compression) / float64(curveBucket)
	for i := range rates {
		phase := 2 * math.Pi * math.Mod(float64(i), dayBuckets) / dayBuckets
		// A raised sinusoid clipped from below yields a ~16h/day plateau of
		// high traffic over a low overnight floor.
		v := math.Sin(phase-math.Pi/2) + 0.55
		if v < 0 {
			v = 0
		}
		v = math.Pow(v, 0.7) // flatten the top into a plateau
		rates[i] = 0.12 + v + r.NormFloat64()*0.02
		if rates[i] < 0.05 {
			rates[i] = 0.05
		}
	}
	scaleToPeak(rates, peakRPS)
	return &Curve{Name: name, Rates: rates, Bucket: curveBucket}
}

// TwitterDuration is the paper's Twitter sample length (90 minutes).
const TwitterDuration = 90 * time.Minute

// Twitter synthesizes the erratic, dense Twitter trace: a heavy-tailed
// multiplicative random walk with abrupt jumps, scaled to the target mean
// rate (the paper uses 5x the Azure sample's mean).
func Twitter(rng *sim.RNG, meanRPS float64, dur time.Duration) *Trace {
	return TwitterCurve(rng, meanRPS, dur).Realize(rng)
}

// TwitterCurve builds the erratic Twitter rate curve without realizing it.
func TwitterCurve(rng *sim.RNG, meanRPS float64, dur time.Duration) *Curve {
	name := fmt.Sprintf("twitter(mean=%.0f,dur=%v)", meanRPS, dur)
	r := rng.Stream("curve/" + name)
	n := int(dur / curveBucket)
	rates := make([]float64, n)
	level := 1.0
	for i := range rates {
		level *= math.Exp(r.NormFloat64() * 0.03)
		// Occasional abrupt regime jumps, up or down.
		if r.Float64() < 0.0015 {
			level *= math.Exp(r.NormFloat64() * 1.2)
		}
		if level < 0.15 {
			level = 0.15
		}
		if level > 12 {
			level = 12
		}
		rates[i] = level
	}
	scaleToMean(rates, meanRPS)
	return &Curve{Name: name, Rates: rates, Bucket: curveBucket}
}

// Poisson synthesizes a constant-rate Poisson arrival process — the paper's
// resource-exhaustion workload (mean ~700 rps of GoogleNet).
func Poisson(rng *sim.RNG, rateRPS float64, dur time.Duration) *Trace {
	return PoissonCurve(rng, rateRPS, dur).Realize(rng)
}

// PoissonCurve builds the constant-rate curve without realizing it.
func PoissonCurve(_ *sim.RNG, rateRPS float64, dur time.Duration) *Curve {
	name := fmt.Sprintf("poisson(rate=%.0f,dur=%v)", rateRPS, dur)
	n := int(dur / curveBucket)
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = rateRPS
	}
	return &Curve{Name: name, Rates: rates, Bucket: curveBucket}
}

// Stable synthesizes the "relatively stable" Wikipedia-derived trace of the
// motivation experiment (Fig. 1): traffic wanders gently (±~15%) around the
// target mean.
func Stable(rng *sim.RNG, meanRPS float64, dur time.Duration) *Trace {
	return StableCurve(rng, meanRPS, dur).Realize(rng)
}

// StableCurve builds the gently wandering rate curve without realizing it.
func StableCurve(rng *sim.RNG, meanRPS float64, dur time.Duration) *Curve {
	name := fmt.Sprintf("stable(mean=%.0f,dur=%v)", meanRPS, dur)
	r := rng.Stream("curve/" + name)
	n := int(dur / curveBucket)
	rates := make([]float64, n)
	periodBuckets := float64(5*time.Minute) / float64(curveBucket)
	for i := range rates {
		phase := 2 * math.Pi * float64(i) / periodBuckets
		rates[i] = 1 + 0.12*math.Sin(phase) + r.NormFloat64()*0.015
		if rates[i] < 0.5 {
			rates[i] = 0.5
		}
	}
	scaleToMean(rates, meanRPS)
	return &Curve{Name: name, Rates: rates, Bucket: curveBucket}
}

// NamedCurve builds the rate curve of the generator called name. rate is the
// generator's own target: the peak for azure, wikipedia and poisson (whose
// constant rate is its peak), the mean for twitter and stable. A zero dur
// picks the generator's default length; wikipedia's length is fixed by its
// five compressed days and ignores dur. A negative, NaN or infinite rate and
// a negative dur are errors; a zero rate yields an empty trace.
func NamedCurve(rng *sim.RNG, name string, rate float64, dur time.Duration) (*Curve, error) {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("trace %s: rate %v rps must be finite and non-negative", name, rate)
	}
	if dur < 0 {
		return nil, fmt.Errorf("trace %s: duration %v must not be negative", name, dur)
	}
	orDefault := func(d time.Duration) time.Duration {
		if dur != 0 {
			return dur
		}
		return d
	}
	switch name {
	case "azure":
		return AzureCurve(rng, rate, orDefault(AzureDuration)), nil
	case "wikipedia":
		return WikipediaCurve(rng, rate, 5, WikipediaCompression), nil
	case "twitter":
		return TwitterCurve(rng, rate, orDefault(TwitterDuration)), nil
	case "poisson":
		return PoissonCurve(rng, rate, orDefault(10*time.Minute)), nil
	case "stable":
		return StableCurve(rng, rate, orDefault(10*time.Minute)), nil
	}
	return nil, fmt.Errorf("unknown trace %q (want azure, wikipedia, twitter, poisson or stable)", name)
}
