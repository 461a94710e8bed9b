// Package autoscale holds the container-count rules of the paper's three
// autoscaling policies (Section IV-C); the serving runtime (internal/core)
// applies them:
//
//   - Reactive scale-up: one container per batch of requests that will be
//     spatially shared, n_c = ceil(n_spatial / batch_size), so every
//     spatial batch can launch in parallel via MPS; time-shared batches
//     reuse a warm container.
//
//   - Predictive scale-up: every ~10 s, a lightweight pluggable model
//     (EWMA) forecasts the next window's request load and containers are
//     pre-warmed ahead of need, hiding cold starts that reactive scale-up
//     alone would expose. The loop is an engine ticker per serving lane.
//
//   - Delayed termination: implemented by the container pool's keep-alive
//     window (see internal/container); surplus containers survive ~10
//     minutes of idleness before termination.
package autoscale

import (
	"math"
	"time"
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
