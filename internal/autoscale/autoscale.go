// Package autoscale implements the paper's three autoscaling policies
// (Section IV-C):
//
//   - Reactive scale-up: one container per batch of requests that will be
//     spatially shared, n_c = ceil(n_spatial / batch_size), so every
//     spatial batch can launch in parallel via MPS; time-shared batches
//     reuse a warm container.
//
//   - Predictive scale-up: every ~10 s, a lightweight pluggable model
//     (EWMA) forecasts the next window's request load and containers are
//     pre-warmed ahead of need, hiding cold starts that reactive scale-up
//     alone would expose.
//
//   - Delayed termination: implemented by the container pool's keep-alive
//     window (see internal/container); surplus containers survive ~10
//     minutes of idleness before termination.
package autoscale

import (
	"math"
	"time"

	"repro/internal/container"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// DefaultPredictInterval is the paper's ~10 s predictive scale-up cadence.
const DefaultPredictInterval = 10 * time.Second

// ReactiveContainers returns n_c = ceil(nSpatial / batchSize), the
// container count required so every spatially shared batch gets its own
// container. It is at least 1 whenever there is any work (the time-sharing
// lane always needs one warm container).
func ReactiveContainers(nSpatial, batchSize int) int {
	if batchSize <= 0 {
		batchSize = 1
	}
	n := (nSpatial + batchSize - 1) / batchSize
	if n < 1 {
		n = 1
	}
	return n
}

// predictiveEpsilon absorbs float representation noise when converting
// rate x window into a request count: 4.7 rps x 10 s is 47.000000000000004
// in float64, and that phantom fraction must not round up to a 48th
// request.
const predictiveEpsilon = 1e-9

// PredictiveContainers converts a predicted request rate into a container
// requirement: the containers needed to spatially serve one dispatch
// window's worth of predicted requests. Fractional requests round up (a
// truncated 65th request would eat a synchronous cold start); non-positive
// rates and windows degrade to the one-warm-container floor, so a
// forecaster extrapolating a negative trend can never drain the pool.
func PredictiveContainers(predictedRPS float64, window time.Duration, batchSize int) int {
	if predictedRPS <= 0 || window <= 0 {
		return ReactiveContainers(0, batchSize)
	}
	reqs := int(math.Ceil(predictedRPS*window.Seconds() - predictiveEpsilon))
	return ReactiveContainers(reqs, batchSize)
}

// Controller drives predictive scale-up for one pool.
type Controller struct {
	eng *sim.Engine
	// Pool is the container pool to pre-warm.
	Pool *container.Pool
	// Predict forecasts the mean request rate over [now, now+horizon] —
	// the predict.Forecaster seam, so seasonal and percentile models plug
	// in unchanged.
	Predict func(now, horizon time.Duration) float64
	// Horizon is how far ahead of the predicted ramp containers are
	// pre-warmed. It defaults to the pool's cold-start latency: a
	// container ordered now is warm one boot from now, so forecasting
	// further ahead procures for traffic the boot cannot beat anyway.
	Horizon time.Duration
	// BatchSize supplies the current batch size (it changes with hardware).
	BatchSize func() int
	// Window is the dispatch window predictions are converted against.
	Window time.Duration
	// Interval is the prediction cadence (default ~10 s).
	Interval time.Duration

	// Sink, when set, receives AutoscalePrewarm events whenever a
	// predictive tick grows the pool; NodeID/Spec/Tenant label them.
	Sink   telemetry.Sink
	NodeID int
	Spec   string
	Tenant int

	stopped bool
}

// NewController wires a predictive scale-up loop; call Start to begin
// ticking.
func NewController(eng *sim.Engine, pool *container.Pool, predict func(now, horizon time.Duration) float64,
	batchSize func() int, window time.Duration) *Controller {
	return &Controller{
		eng: eng, Pool: pool, Predict: predict, BatchSize: batchSize,
		Window: window, Interval: DefaultPredictInterval,
		Horizon: pool.ColdStart(),
	}
}

// Start begins periodic predictive scale-up.
func (c *Controller) Start() {
	c.stopped = false
	c.tick()
}

// Stop halts the loop after the current tick.
func (c *Controller) Stop() { c.stopped = true }

func (c *Controller) tick() {
	if c.stopped {
		return
	}
	need := PredictiveContainers(c.Predict(c.eng.Now(), c.Horizon), c.Window, c.BatchSize())
	if need > c.Pool.Total() {
		if c.Sink != nil {
			e := telemetry.Ev(c.eng.Now(), telemetry.AutoscalePrewarm)
			e.Node = c.NodeID
			e.Spec = c.Spec
			e.Tenant = c.Tenant
			e.N = need
			e.Detail = "predictive"
			c.Sink.Event(e)
		}
		c.Pool.Ensure(need)
	}
	c.eng.Schedule(c.Interval, func() { c.tick() })
}
