// Package perfmodel implements the paper's Section III model of queueing and
// interference overheads — Equation (1) — and the probing machinery that
// finds the best number of requests y to time-share (queue) versus
// spatially share (run concurrently via MPS) on a GPU.
//
// For N_M outstanding requests of model M with batch size BS_M, profiled
// solo latency Solo_M and fractional bandwidth requirement FBR_M, queueing
// y of them and running the rest concurrently yields a worst-case latency
//
//	T_max = Solo_M * y/BS_M                      (queued portion)
//	      + Solo_M * I(existing + k*FBR_M)       (spatially shared portion)
//
// where k = ceil((N_M - y)/BS_M) is the number of co-located batch jobs and
// I is the interference inflation of the co-located portion. The paper uses
// the linear Prophet-derived form I(D) = D (valid only when the spatial
// portion saturates the device, constraint (ii)); this reproduction uses the
// same contention curve the simulated device exhibits,
// I(D) = Penalty(D)/Penalty(FBR_M) with Penalty(D) = max(1, D)^alpha, which
// plays the role of the paper's profiled interference model (their reported
// prediction error is <4%). The queued-portion term Solo_M*y/BS_M is the
// paper's approximation verbatim.
//
// The scheduler wants the y minimizing T_max subject to the constraints in
// Section III: 0 <= y < N (there must be requests left to run), and the
// interference term is only meaningful when the spatial portion exceeds the
// device's bandwidth (below saturation there is simply no interference).
package perfmodel

import (
	"math"
	"time"

	"repro/internal/profile"
)

// Inputs bundles the known quantities of Equation (1). All of them are
// either carried by the arrived requests (N, BatchSize, SLO) or come from
// the profiling tables (Solo, FBR) — exactly the paper's split.
type Inputs struct {
	// Solo is Solo_M: the profiled isolated latency of one full batch.
	Solo time.Duration
	// BatchSize is BS_M.
	BatchSize int
	// FBR is FBR_M on the device under consideration.
	FBR float64
	// N is N_M: the number of outstanding/predicted requests.
	N int
	// SLO is the per-request latency target.
	SLO time.Duration
	// ExistingDemand is the aggregate FBR of jobs already executing on the
	// device; 0 when planning for an idle device.
	ExistingDemand float64
	// ComputeFrac is the compute occupancy of one full batch job
	// (profile.Entry.ComputeAt); 0 treats compute as uncontended.
	ComputeFrac float64
	// ExistingCompute is the aggregate compute occupancy already executing.
	ExistingCompute float64
	// ExistingJobs is the number of jobs already executing (for the MPS
	// per-client overhead).
	ExistingJobs int
	// ExistingLane is the solo-equivalent backlog already in the
	// time-sharing lane; newly queued requests wait behind it.
	ExistingLane time.Duration
	// PenaltyByJobs, when non-nil, memoizes profile.Penalty(k*FBR) for k
	// co-located batch jobs of this workload (profile.Entry.PenaltyByJobs).
	// TMax consults it instead of the Pow-based contention curve whenever
	// the device has no existing bandwidth demand — the common case when
	// probing idle hardware — and falls back to profile.Slowdown otherwise.
	// Optional: nil keeps the direct computation; results are bit-identical
	// either way.
	PenaltyByJobs []float64
}

// Batches returns the number of batch jobs needed for n requests.
func (in Inputs) Batches(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + in.BatchSize - 1) / in.BatchSize
}

// TMax evaluates Equation (1) for a given y: the predicted completion time
// of the last-finishing request when y requests are queued and N-y run
// spatially. It panics if the inputs are malformed (non-positive batch size
// or solo latency) — those indicate a profiling bug, not a scheduling
// decision.
func TMax(in Inputs, y int) time.Duration {
	return tmaxAt(&in, y)
}

// tmaxAt is TMax on a pointer receiver: BestY evaluates it once per grid
// point, and passing the 100+-byte Inputs by value per candidate showed up
// as pure copy overhead in profiles.
func tmaxAt(in *Inputs, y int) time.Duration {
	if in.BatchSize <= 0 || in.Solo <= 0 {
		panic("perfmodel: malformed Inputs")
	}
	if y < 0 {
		y = 0
	}
	if y > in.N {
		y = in.N
	}
	spatialReqs := in.N - y
	var spatial time.Duration
	if spatialReqs > 0 {
		k := (spatialReqs + in.BatchSize - 1) / in.BatchSize // Batches, without re-copying in
		var inflation float64
		if in.ExistingDemand == 0 && k < len(in.PenaltyByJobs) {
			// Memoized Penalty(k*FBR)/Penalty(1*FBR): bit-identical to the
			// Slowdown call below when nothing else demands bandwidth
			// (0 + k*FBR == k*FBR exactly), minus the math.Pow calls.
			inflation = in.PenaltyByJobs[k] / in.PenaltyByJobs[1]
			if inflation < 1 {
				inflation = 1
			}
		} else {
			demand := in.ExistingDemand + float64(k)*in.FBR
			inflation = profile.Slowdown(demand, in.FBR)
		}
		// Co-located saturating kernels split the device's compute units;
		// the binding bottleneck inflates execution.
		if c := in.ExistingCompute + float64(k)*in.ComputeFrac; c > 1 && c > inflation {
			inflation = c
		}
		// Every co-resident MPS client adds partition overhead.
		inflation *= profile.ClientOverhead(in.ExistingJobs + k)
		// Partial batches run proportionally faster, mirroring the queued
		// term's fractional approximation.
		fill := float64(spatialReqs) / float64(k*in.BatchSize)
		spatial = time.Duration(float64(in.Solo) * fill * inflation)
	}
	queued := time.Duration(float64(in.Solo) * float64(y) / float64(in.BatchSize))
	if y > 0 {
		queued += in.ExistingLane // queued requests wait behind the lane
	}
	return queued + spatial
}

// Candidates returns the y values worth probing: the batch-quantized grid
// (queue everything except k full spatial batches, for every feasible k)
// plus the two extremes y=0 (all spatial — the INFless/Llama policy) and
// y=N-1/y=N handled by the k=0 entry. Between grid points T_max is linear
// in y with positive slope, so the minimum always sits on this grid.
//
// BestY walks the same grid without materializing it; Candidates is retained
// for tests, reports and the parallel reference implementation.
func Candidates(in Inputs) []int {
	if in.N <= 0 {
		return nil
	}
	kMax := in.Batches(in.N)
	ys := make([]int, 0, kMax+1)
	seen := make(map[int]bool, kMax+1)
	for k := kMax; k >= 0; k-- {
		y := in.N - k*in.BatchSize
		if y < 0 {
			y = 0
		}
		if !seen[y] {
			seen[y] = true
			ys = append(ys, y)
		}
	}
	return ys
}

// BestY probes the candidate y values and returns the one minimizing T_max,
// the corresponding T_max, and whether that minimum meets the SLO. ok=false
// is the signal to reattempt on the next more performant GPU (Section III:
// "For cases where a suitable y value does not exist..."). Ties prefer
// smaller y (less queueing, fresher results under surges).
//
// The probe walks the batch-quantized k-grid serially and in place: one
// TMax evaluation is ~20 ns of arithmetic, so any fan-out (the paper
// multi-threads its probing on the real control plane and reports <3 ms)
// costs more in goroutine spawn than it saves. The grid is visited in
// ascending y — exactly Candidates' order — so the strict < comparison
// keeps the smallest y on ties, and the result is provably identical to
// probing the materialized candidate list (the test-only parallel reference
// in reference_test.go asserts it). The walk allocates nothing, which is
// what lets the monitor loop call it for every GPU candidate every tick.
func BestY(in Inputs) (y int, tmax time.Duration, ok bool) {
	if in.N <= 0 {
		return 0, 0, true
	}
	best := time.Duration(math.MaxInt64)
	bestY := 0
	prevY := -1
	for k := in.Batches(in.N); k >= 0; k-- {
		yc := in.N - k*in.BatchSize
		if yc < 0 {
			yc = 0
		}
		if yc == prevY { // the clamped head of the grid repeats y=0
			continue
		}
		prevY = yc
		if t := tmaxAt(&in, yc); t < best {
			best, bestY = t, yc
		}
	}
	return bestY, best, best <= in.SLO
}

// ApproxCPUTMax approximates the worst-case latency of serving n requests on
// a CPU node (Algorithm 1's approx_T_max for HW.type == CPU): the node's
// existing backlog plus the serial execution of the new batches.
func ApproxCPUTMax(solo time.Duration, batchSize, n int, backlog time.Duration) time.Duration {
	if n <= 0 {
		return backlog
	}
	if batchSize <= 0 {
		batchSize = 1
	}
	batches := (n + batchSize - 1) / batchSize
	return backlog + time.Duration(batches)*solo
}
