// Package predict provides the request-rate forecasters the paper's
// Hardware Selection and predictive autoscaling modules rely on. The paper
// uses EWMA (as in Atoll) as its "lightweight, pluggable" model; this
// package generalizes that seam into a Forecaster interface with three
// production-style implementations — EWMA with Holt trend, a seasonal
// (Holt-Winters/DSP-flavoured) model with autocorrelation period detection,
// and a percentile provisioner — plus the clairvoyant predictor the Oracle
// scheme uses, and a deterministic backtesting harness (backtest.go) that
// scores any forecaster against any rate curve.
package predict

import (
	"fmt"
	"math"
	"time"

	"repro/internal/trace"
)

// Forecaster estimates the near-future request rate of one workload.
//
// Observe is fed once per observation window with the number of requests
// that arrived in the window ending at now. PredictRPS then estimates the
// average arrival rate over [now, now+horizon].
type Forecaster interface {
	Observe(now time.Duration, count int)
	PredictRPS(now, horizon time.Duration) float64
}

// Predictor is the historical name of the Forecaster seam; existing config
// hooks (core.Config.NewPredictor) keep compiling against it.
type Predictor = Forecaster

// ConfidenceReporter is the optional extension models implement to disclose
// how much the forecast in use can be trusted, in [0, 1]. The hardware
// procurement path only trusts a long-lead forecast from a forecaster
// reporting at least ConfidenceFloor; below that it falls back to the
// observed (reactive) rate. Models without the method are treated as fully
// confident, matching the paper's unconditional use of EWMA.
type ConfidenceReporter interface {
	Confidence() float64
}

// ConfidenceFloor is the confidence below which consumers should prefer the
// observed rate over a long-lead forecast.
const ConfidenceFloor = 0.5

// Confidence reports f's confidence, treating models without the optional
// ConfidenceReporter extension as fully confident.
func Confidence(f Forecaster) float64 {
	if c, ok := f.(ConfidenceReporter); ok {
		return c.Confidence()
	}
	return 1
}

// Names lists the forecasters NewByName accepts, in documentation order.
func Names() []string { return []string{"ewma", "seasonal", "percentile", "p99"} }

// NewByName constructs a forecaster over the given observation window:
// "ewma" (the paper's default), "seasonal" (period-detecting Holt-Winters),
// "percentile" (p95 provisioner) or "p99". The empty name means "ewma".
func NewByName(name string, window time.Duration) (Forecaster, error) {
	switch name {
	case "", "ewma":
		return NewEWMA(window), nil
	case "seasonal":
		return NewSeasonal(window), nil
	case "percentile", "p95":
		return NewPercentile(window, 0.95), nil
	case "p99":
		return NewPercentile(window, 0.99), nil
	}
	return nil, fmt.Errorf("predict: unknown forecaster %q (have %v)", name, Names())
}

// EWMA smooths the observed per-window arrival rate exponentially and
// carries a trend term (Holt's linear method), so the forecast over a
// horizon leads ramps instead of lagging them — exactly what hardware
// procurement with a ~4 s lead time needs. To avoid under-provisioning
// during surges (the paper's autoscaler is deliberately conservative), the
// level tracks upward jumps faster than decays, and only a positive trend is
// extrapolated.
type EWMA struct {
	// UpAlpha and DownAlpha are the level smoothing factors in (0, 1];
	// higher means more reactive.
	UpAlpha   float64
	DownAlpha float64
	// Beta is the trend smoothing factor.
	Beta float64
	// Window is the observation window the counts correspond to.
	Window time.Duration

	value       float64
	trend       float64 // rate change per window
	initialized bool
}

// NewEWMA returns the paper-flavoured EWMA over the given observation
// window: fast on the way up (0.7), slower on the way down (0.25), with a
// moderately damped trend.
func NewEWMA(window time.Duration) *EWMA {
	return &EWMA{UpAlpha: 0.7, DownAlpha: 0.25, Beta: 0.4, Window: window}
}

// Observe absorbs the count of arrivals in the window ending at now.
func (e *EWMA) Observe(_ time.Duration, count int) {
	rate := float64(count) / e.Window.Seconds()
	if !e.initialized {
		e.value = rate
		e.initialized = true
		return
	}
	a := e.DownAlpha
	if rate > e.value {
		a = e.UpAlpha
	}
	prev := e.value
	e.value = a*rate + (1-a)*(e.value+e.trend)
	e.trend = e.Beta*(e.value-prev) + (1-e.Beta)*e.trend
}

// trendNoiseGate returns the smallest trend (rate change per window) worth
// extrapolating: long horizons multiply the trend by many windows, so
// Poisson counting noise in the trend would otherwise masquerade as a surge.
// The per-window rate estimate has standard deviation sqrt(rate/window);
// trends below half of that are treated as noise.
func (e *EWMA) trendNoiseGate() float64 {
	w := e.Window.Seconds()
	if w <= 0 {
		return 0
	}
	return 0.5 * math.Sqrt((e.value+1)/w)
}

// PredictRPS forecasts the rate over [now, now+horizon]: the smoothed level
// plus, when traffic is genuinely building (trend above the noise gate), the
// extrapolated trend at the horizon. A negative trend is not extrapolated
// (conservatism against premature scale-down).
func (e *EWMA) PredictRPS(_, horizon time.Duration) float64 {
	p := e.value
	if e.Window > 0 && e.trend > e.trendNoiseGate() {
		p += e.trend * float64(horizon) / float64(e.Window)
	}
	if p < 0 {
		p = 0
	}
	return p
}

// Rate returns the current smoothed rate without trend extrapolation.
func (e *EWMA) Rate() float64 { return e.value }

// Confidence is always 1: EWMA is the trusted baseline the paper's
// procurement path uses unconditionally.
func (e *EWMA) Confidence() float64 { return 1 }

// Clairvoyant knows the whole trace and predicts the exact mean rate over
// the horizon — the predictor of the paper's Oracle scheme.
type Clairvoyant struct {
	tr *trace.Trace
}

// NewClairvoyant returns a predictor that reads the future from tr.
func NewClairvoyant(tr *trace.Trace) *Clairvoyant { return &Clairvoyant{tr: tr} }

// Observe is a no-op; the future is already known.
func (c *Clairvoyant) Observe(time.Duration, int) {}

// PredictRPS returns the true mean arrival rate over [now, now+horizon].
func (c *Clairvoyant) PredictRPS(now, horizon time.Duration) float64 {
	if horizon <= 0 {
		return 0
	}
	sub := c.tr.Slice(now, now+horizon)
	return sub.MeanRPS()
}

// Static always predicts a fixed rate; useful in tests and as the
// no-prediction ablation.
type Static struct{ RPS float64 }

// Observe is a no-op.
func (s Static) Observe(time.Duration, int) {}

// PredictRPS returns the fixed rate.
func (s Static) PredictRPS(time.Duration, time.Duration) float64 { return s.RPS }

// WindowObserver accumulates raw arrivals and feeds a Forecaster one count
// per aligned observation window. It bridges the event-driven gateway (which
// sees individual requests) and the windowed Forecaster interface.
type WindowObserver struct {
	p      Forecaster
	window time.Duration

	windowStart time.Duration
	count       int
	lastRate    float64 // arrivals/s over the last completed window
}

// NewWindowObserver wraps p, flushing counts every window.
func NewWindowObserver(p Forecaster, window time.Duration) *WindowObserver {
	return &WindowObserver{p: p, window: window}
}

// Arrive records one request at time now, flushing any completed windows
// first.
func (w *WindowObserver) Arrive(now time.Duration) {
	w.catchUp(now)
	w.count++
}

// catchUp flushes all observation windows that ended at or before now.
func (w *WindowObserver) catchUp(now time.Duration) {
	for now >= w.windowStart+w.window {
		w.p.Observe(w.windowStart+w.window, w.count)
		w.lastRate = float64(w.count) / w.window.Seconds()
		w.count = 0
		w.windowStart += w.window
	}
}

// PredictRPS flushes completed windows and delegates to the forecaster.
func (w *WindowObserver) PredictRPS(now, horizon time.Duration) float64 {
	w.catchUp(now)
	return w.p.PredictRPS(now, horizon)
}

// ObservedRPS flushes completed windows and returns the arrival rate of the
// last one (0 before the first completes). Flushing even without arrivals
// lets silence decay the rate.
func (w *WindowObserver) ObservedRPS(now time.Duration) float64 {
	w.catchUp(now)
	return w.lastRate
}

// Confidence reports the wrapped forecaster's confidence (1 for models
// without the extension). It reflects the state as of the last flushed
// window; callers that predicted first (flushing windows up to now) read a
// confidence consistent with that prediction.
func (w *WindowObserver) Confidence() float64 { return Confidence(w.p) }
