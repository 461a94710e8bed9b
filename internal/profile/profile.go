// Package profile is the profiling substrate of the reproduction. In the
// paper, the provider profiles every workload on every hardware generation
// ahead of time and the resulting tables — solo execution latency Solo_M and
// Fractional Bandwidth Requirement FBR_M — feed both Eq. (1) and the
// Hardware Selection module's capable-hardware pool. Here those tables are
// derived from the calibration constants in internal/model and
// internal/hardware; the formulas below play the role of the measurement
// campaign.
//
// The package also defines the GPU contention penalty P(D) shared by the
// device simulator (ground truth) and the scheduler's performance model,
// mirroring how the paper's model is fit to the same hardware it predicts.
package profile

import (
	"math"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
)

// Calibration constants. They are package-level (not per-profile) because
// the paper treats them as properties of the serving stack, not of any one
// workload.
const (
	// GPUEfficiency is the fraction of peak device FLOP/s an inference
	// kernel sustains. Calibrated against the paper's §II observation that
	// a single g3s.xlarge (M60) serves ResNet-50 at ~750 rps: 0.6 puts the
	// M60's batched ResNet-50 throughput at ~670 rps.
	GPUEfficiency = 0.6
	// CPUEfficiency is the analogous fraction for the batched CPU mode.
	CPUEfficiency = 0.9
	// GPULaunchOverhead is the fixed per-batch cost on a GPU (kernel
	// launches, host-device transfer, framework dispatch).
	GPULaunchOverhead = 4 * time.Millisecond
	// CPULaunchOverhead is the fixed per-batch cost of the CPU mode.
	CPULaunchOverhead = 10 * time.Millisecond
	// ContentionAlpha is the exponent of the contention penalty P(D): linear
	// bandwidth sharing would be alpha=1; the excess models the
	// cache/capacity interference MPS co-location adds beyond pure
	// bandwidth contention (the regime Prophet's QoS model covers).
	ContentionAlpha = 1.8
	// MPSClientOverhead is the per-additional-client efficiency loss of MPS
	// co-location (SM partition fragmentation and scheduling overhead):
	// k co-resident jobs all run a further (1 + overhead*(k-1)) slower.
	// This is why consolidating *every* batch onto the GPU (the
	// INFless/Llama strategy) eventually loses to a bounded hybrid even
	// when bandwidth is not saturated.
	MPSClientOverhead = 0.10
	// TargetBatchLatency is the solo-latency budget used when picking a
	// hardware-specific batch size; the paper selects batch sizes so that
	// batch execution stays between ~50 and 200 ms.
	TargetBatchLatency = 150 * time.Millisecond
)

// SaturationConst scales how many samples' kernels fill a device: a job
// saturates the GPU's compute units once its batch reaches
// SaturationConst * ComputeScore / GFLOPsPerSample samples. Below that, MPS
// co-location genuinely runs jobs in parallel on spare units — the reason
// spatial sharing helps at all; at or beyond it, co-located jobs split the
// device and slow each other proportionally. Calibrated so the paper's
// fixed batch sizes (e.g. SENet 18 at 128, DenseNet 121 at 64) leave
// meaningful spare compute on the M60 — the premise of the motivation
// experiment — reflecting the modest SM occupancy of PyTorch-v1-era
// inference kernels.
const SaturationConst = 56.0

// Penalty is the contention penalty P(D) for aggregate bandwidth demand D
// (the sum of FBRs of co-located jobs): no penalty below saturation, then a
// superlinear slowdown.
func Penalty(d float64) float64 {
	if d <= 1 {
		return 1
	}
	return math.Pow(d, ContentionAlpha)
}

// Slowdown returns the multiplicative slowdown a job with FBR own suffers
// when the aggregate demand on the device is total (total includes own).
// A job alone on the device always has slowdown 1, because the profiled
// solo latency already reflects whatever bandwidth the device actually
// delivers to it.
func Slowdown(total, own float64) float64 {
	s := Penalty(total) / Penalty(own)
	if s < 1 {
		return 1
	}
	return s
}

// ClientOverhead returns the MPS co-location efficiency factor for k
// co-resident jobs: 1 for a lone job, growing MPSClientOverhead per extra
// client.
func ClientOverhead(k int) float64 {
	if k <= 1 {
		return 1
	}
	return 1 + MPSClientOverhead*float64(k-1)
}

// MPSMaxClients is NVIDIA MPS's limit on concurrently connected client
// processes (48 since Volta).
const MPSMaxClients = 48

// Entry is one row of the profiling table for a (model, hardware) pair —
// everything the scheduling policies consume. Catalog rows are shared and
// read-only: Lookup and RowsFor hand out pointers into one table.
type Entry struct {
	Model    model.Spec
	Hardware hardware.Spec
	// SoloSample is the per-sample execution time in isolation, excluding
	// the fixed per-batch launch overhead.
	SoloSample time.Duration
	// FBR is the workload's Fractional Bandwidth Requirement on the node:
	// the fraction of device global-memory bandwidth one batch job demands
	// while executing. 0.2 means the job wants 20% of the bandwidth; values
	// above 1 mean a single job already saturates the device (the language
	// models on the cheaper GPUs). CPU nodes have 0 — the paper's
	// interference model only covers MPS co-location on GPUs.
	FBR float64
	// PreferredBatch is the batch size the provider configures: the largest
	// power of two not exceeding the model's MaxBatch whose solo latency
	// fits TargetBatchLatency, and at least 1 even if a single sample misses
	// the target (the node is then simply a bad candidate; hardware
	// selection notices via T_max).
	PreferredBatch int
	// SoloBatch is SoloAt(PreferredBatch).
	SoloBatch time.Duration
	// ThroughputRPS is the sustained request throughput in isolation:
	// back-to-back batches at the preferred size.
	ThroughputRPS float64
	// MaxResidentJobs is how many serving containers of the workload fit on
	// the node at once — the hard cap on spatial co-location: device
	// memory, further clamped by the MPS client limit on GPUs.
	MaxResidentJobs int
	// ComputeFrac is ComputeAt(PreferredBatch).
	ComputeFrac float64
	// PenaltyByJobs memoizes Penalty(k*FBR) for k = 0..MPSMaxClients
	// co-located batch jobs: the contention curve Eq. (1) evaluates when
	// probing an otherwise-idle device, precomputed so the probe walk never
	// calls math.Pow.
	PenaltyByJobs []float64

	// launch (the per-batch overhead) and satBatch (the batch size at which
	// one job saturates the device's compute units) are the pair's two
	// constants besides SoloSample that SoloAt and ComputeAt depend on, so
	// both evaluate for any batch size with no lookup.
	launch   time.Duration
	satBatch int
}

// SoloAt is the paper's Solo_M for the row's pair: the profiled execution
// latency of one batch of the given size run in isolation.
func (e *Entry) SoloAt(batch int) time.Duration {
	if batch < 1 {
		batch = 1
	}
	return e.launch + time.Duration(batch)*e.SoloSample
}

// ComputeAt is the fraction of the device's compute units one batch of the
// given size occupies while executing, in (0, 1].
func (e *Entry) ComputeAt(batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	if batch >= e.satBatch {
		return 1
	}
	return float64(batch) / float64(e.satBatch)
}

// EffectiveBatchAt returns the batch size actually reachable at the given
// arrival rate when requests may only be held for maxWait before dispatch:
// min(PreferredBatch, rate*maxWait), at least 1. Under low rates batches run
// partially filled — the paper's flexible batch sizes.
func (e *Entry) EffectiveBatchAt(rateRPS float64, maxWait time.Duration) int {
	b := int(rateRPS * maxWait.Seconds())
	if b > e.PreferredBatch {
		b = e.PreferredBatch
	}
	if b < 1 {
		b = 1
	}
	return b
}

// CanSustain reports whether the node keeps up with the arrival rate when
// batches are dispatched at least every maxWait: the per-batch cost
// (including launch overhead, which dominates for small batches) must fit in
// the batch's arrival budget with headroom.
func (e *Entry) CanSustain(rateRPS float64, maxWait time.Duration) bool {
	if rateRPS <= 0 {
		return true
	}
	b := e.EffectiveBatchAt(rateRPS, maxWait)
	util := rateRPS * e.SoloAt(b).Seconds() / float64(b)
	return util <= Headroom
}

// Headroom is the fraction of a node's sustainable throughput the capacity
// probes consider usable; running hotter leaves no slack for burst noise.
const Headroom = 0.85

// Lookup returns the profiling row for a pair: RowsFor(m).Entry(hw).
func Lookup(m model.Spec, hw hardware.Spec) *Entry {
	return RowsFor(m).Entry(hw)
}

// computeEntry profiles the pair. A node sustains its peak FLOP/s times an
// efficiency (times the model's CPU friendliness on CPU nodes).
func computeEntry(m model.Spec, hw hardware.Spec) *Entry {
	gflops := hw.ComputeScore * 1000 * CPUEfficiency * m.CPUFactor
	if hw.IsGPU() {
		gflops = hw.ComputeScore * 1000 * GPUEfficiency
	}
	e := &Entry{
		Model:           m,
		Hardware:        hw,
		SoloSample:      time.Duration(m.GFLOPsPerSample / gflops * float64(time.Second)),
		MaxResidentJobs: max(1, int(hw.MemGB/m.MemFootprintGB)),
		PenaltyByJobs:   make([]float64, MPSMaxClients+1),
		launch:          CPULaunchOverhead,
		satBatch:        max(1, int(SaturationConst*hw.ComputeScore/m.GFLOPsPerSample)),
	}
	if hw.IsGPU() {
		demandGBps := m.TrafficGBPerSample * gflops / m.GFLOPsPerSample
		e.FBR = demandGBps / hw.MemBWGBps
		e.MaxResidentJobs = min(e.MaxResidentJobs, MPSMaxClients)
		e.launch = GPULaunchOverhead
	}
	e.PreferredBatch = 1
	for b := 1; b <= m.MaxBatch; b *= 2 {
		if e.SoloAt(b) <= TargetBatchLatency {
			e.PreferredBatch = b
		}
	}
	e.SoloBatch = e.SoloAt(e.PreferredBatch)
	e.ThroughputRPS = float64(e.PreferredBatch) / e.SoloBatch.Seconds()
	e.ComputeFrac = e.ComputeAt(e.PreferredBatch)
	for k := range e.PenaltyByJobs {
		e.PenaltyByJobs[k] = Penalty(float64(k) * e.FBR)
	}
	return e
}

// Rows is one model's profiling rows, resolved once so per-tick selection
// and per-job pricing do only indexed reads: every catalog node cheapest
// first, plus the capable pool's fallback GPU. Rows are the only door into
// the profiling table; they are read-only.
type Rows struct {
	Model model.Spec
	// ByCost holds one row per catalog node in hardware.CostSorted order.
	ByCost []*Entry
	// Fallback is the most performant GPU's row, the capable pool's last
	// resort (it is also one of ByCost).
	Fallback *Entry
}

// RowsFor returns the model's profiling rows. Catalog models share one
// precomputed Rows; any other spec — including a doctored spec that keeps a
// catalog name — gets freshly computed rows, so a stale row is never served.
func RowsFor(m model.Spec) *Rows {
	if i, ok := modelIndex[m.Name]; ok && catalogRows[i].Model == m {
		return catalogRows[i]
	}
	return computeRows(m)
}

func computeRows(m model.Spec) *Rows {
	cs := hardware.CostSorted()
	rows := &Rows{Model: m, ByCost: make([]*Entry, len(cs))}
	for i, hw := range cs {
		rows.ByCost[i] = computeEntry(m, hw)
		if hw == fallbackGPU {
			rows.Fallback = rows.ByCost[i]
		}
	}
	return rows
}

// Entry returns the row for hw: the resolved one for a catalog node, or the
// pair profiled on the fly for any other spec — a doctored node that keeps a
// catalog name included, since rows match on the full spec.
func (r *Rows) Entry(hw hardware.Spec) *Entry {
	for _, e := range r.ByCost {
		if e.Hardware == hw {
			return e
		}
	}
	return computeEntry(r.Model, hw)
}

// AppendCapable appends to dst, cheapest first, the rows of the nodes able
// to serve the workload at the given sustained request rate within the SLO —
// the pool the Hardware Selection module explores (Algorithm 1's
// get_HW_pool). A node qualifies when (i) one batch executes within the SLO
// in isolation, leaving room for batching delay, and (ii) it sustains the
// rate (Entry.CanSustain) at the batch sizes reachable within the SLO's
// batching budget. The pool is never empty: if nothing qualifies, the most
// performant GPU is appended as the fallback of last resort (matching the
// paper's escalation to the next more performant GPU when no feasible y
// exists). Callers reuse dst across monitor ticks, so the selection hot path
// allocates nothing; the catalog's prices are distinct, so filtering the
// cost-sorted rows in order yields exactly the sorted pool.
func (r *Rows) AppendCapable(dst []*Entry, rateRPS float64, slo time.Duration) []*Entry {
	base := len(dst)
	maxWait := capabilityMaxWait(slo)
	for _, e := range r.ByCost {
		if e.SoloBatch > slo*3/4 || !e.CanSustain(rateRPS, maxWait) {
			continue
		}
		dst = append(dst, e)
	}
	if len(dst) == base {
		dst = append(dst, r.Fallback)
	}
	return dst
}

// The profiling campaign, run once at init: every catalog model profiled on
// every catalog node.
var (
	catalogRows []*Rows        // by model.Catalog index
	modelIndex  map[string]int // model name -> catalogRows index
	fallbackGPU hardware.Spec
)

func init() {
	fallbackGPU = hardware.MostPerformant(hardware.GPU)
	ms := model.Catalog()
	modelIndex = make(map[string]int, len(ms))
	for i, m := range ms {
		catalogRows = append(catalogRows, computeRows(m))
		modelIndex[m.Name] = i
	}
}

// Table returns the full profiling campaign: every catalog model on every
// catalog node.
func Table() []*Entry {
	var out []*Entry
	for _, m := range model.Catalog() {
		for _, hw := range hardware.Catalog() {
			out = append(out, Lookup(m, hw))
		}
	}
	return out
}

// capabilityMaxWait is the batching-delay budget used by the capability
// probes: a quarter of the SLO, leaving the rest for execution.
func capabilityMaxWait(slo time.Duration) time.Duration { return slo / 4 }
