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

// EffectiveGFLOPs returns the sustained GFLOP/s the node delivers for the
// given workload (device peak x efficiency, x the model's CPU friendliness
// on CPU nodes).
func EffectiveGFLOPs(m model.Spec, hw hardware.Spec) float64 {
	if hw.IsGPU() {
		return hw.ComputeScore * 1000 * GPUEfficiency
	}
	return hw.ComputeScore * 1000 * CPUEfficiency * m.CPUFactor
}

// SoloSample returns the profiled per-sample execution time of the workload
// on the node, in isolation (excluding the fixed per-batch overhead).
func SoloSample(m model.Spec, hw hardware.Spec) time.Duration {
	if e := tableEntry(m, hw); e != nil {
		return e.SoloSample
	}
	return computeSoloSample(m, hw)
}

func computeSoloSample(m model.Spec, hw hardware.Spec) time.Duration {
	sec := m.GFLOPsPerSample / EffectiveGFLOPs(m, hw)
	return time.Duration(sec * float64(time.Second))
}

// Solo returns the profiled execution latency of one batch of the given size
// run in isolation on the node — the paper's Solo_M. Hot paths price jobs
// with Entry.SoloAt on a resolved row instead.
func Solo(m model.Spec, hw hardware.Spec, batch int) time.Duration {
	if e := tableEntry(m, hw); e != nil {
		return e.SoloAt(batch)
	}
	return computeSolo(m, hw, batch)
}

func computeSolo(m model.Spec, hw hardware.Spec, batch int) time.Duration {
	if batch < 1 {
		batch = 1
	}
	return launchOverhead(hw) + time.Duration(batch)*computeSoloSample(m, hw)
}

// launchOverhead is the fixed per-batch cost on the node.
func launchOverhead(hw hardware.Spec) time.Duration {
	if hw.IsGPU() {
		return GPULaunchOverhead
	}
	return CPULaunchOverhead
}

// FBR returns the workload's Fractional Bandwidth Requirement on the node:
// the fraction of device global-memory bandwidth one batch job demands while
// executing. An FBR of 0.2 means the job wants 20% of the bandwidth; values
// above 1 mean a single job already saturates the device (the language
// models on the cheaper GPUs). CPU nodes return 0 — the paper's interference
// model only covers MPS co-location on GPUs.
func FBR(m model.Spec, hw hardware.Spec) float64 {
	if e := tableEntry(m, hw); e != nil {
		return e.FBR
	}
	return computeFBR(m, hw)
}

func computeFBR(m model.Spec, hw hardware.Spec) float64 {
	if !hw.IsGPU() {
		return 0
	}
	demandGBps := m.TrafficGBPerSample * EffectiveGFLOPs(m, hw) / m.GFLOPsPerSample
	return demandGBps / hw.MemBWGBps
}

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

// SaturationBatch returns the batch size at which one job of the workload
// saturates the device's compute units (at least 1).
func SaturationBatch(m model.Spec, hw hardware.Spec) int {
	b := int(SaturationConst * hw.ComputeScore / m.GFLOPsPerSample)
	if b < 1 {
		b = 1
	}
	return b
}

// ComputeFraction returns the fraction of the device's compute units a batch
// job occupies while executing, in (0, 1]. Hot paths use Entry.ComputeAt.
func ComputeFraction(m model.Spec, hw hardware.Spec, batch int) float64 {
	if e := tableEntry(m, hw); e != nil {
		return e.ComputeAt(batch)
	}
	return computeComputeFraction(m, hw, batch)
}

func computeComputeFraction(m model.Spec, hw hardware.Spec, batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	sat := SaturationBatch(m, hw)
	if batch >= sat {
		return 1
	}
	return float64(batch) / float64(sat)
}

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

// PreferredBatch returns the batch size the provider would configure for the
// workload on the node: the largest power of two not exceeding the model's
// MaxBatch whose solo latency fits TargetBatchLatency. It is at least 1 even
// if a single sample misses the target (the device is then simply a bad
// candidate; hardware selection will notice via T_max).
func PreferredBatch(m model.Spec, hw hardware.Spec) int {
	if e := tableEntry(m, hw); e != nil {
		return e.PreferredBatch
	}
	return computePreferredBatch(m, hw)
}

func computePreferredBatch(m model.Spec, hw hardware.Spec) int {
	best := 1
	for b := 1; b <= m.MaxBatch; b *= 2 {
		if computeSolo(m, hw, b) <= TargetBatchLatency {
			best = b
		}
	}
	return best
}

// ThroughputRPS returns the sustained request throughput of the node for the
// workload: back-to-back batches at the preferred size, in isolation.
func ThroughputRPS(m model.Spec, hw hardware.Spec) float64 {
	if e := tableEntry(m, hw); e != nil {
		return e.ThroughputRPS
	}
	return computeThroughputRPS(m, hw)
}

func computeThroughputRPS(m model.Spec, hw hardware.Spec) float64 {
	b := computePreferredBatch(m, hw)
	solo := computeSolo(m, hw, b)
	if solo <= 0 {
		return 0
	}
	return float64(b) / solo.Seconds()
}

// MPSMaxClients is NVIDIA MPS's limit on concurrently connected client
// processes (48 since Volta).
const MPSMaxClients = 48

// MaxResidentJobs returns how many serving containers of the workload fit on
// the node at once — the hard cap on spatial co-location: device memory,
// further clamped by the MPS client limit on GPUs.
func MaxResidentJobs(m model.Spec, hw hardware.Spec) int {
	if e := tableEntry(m, hw); e != nil {
		return e.MaxResidentJobs
	}
	return computeMaxResidentJobs(m, hw)
}

func computeMaxResidentJobs(m model.Spec, hw hardware.Spec) int {
	n := int(hw.MemGB / m.MemFootprintGB)
	if n < 1 {
		n = 1
	}
	if hw.IsGPU() && n > MPSMaxClients {
		n = MPSMaxClients
	}
	return n
}

// Entry is one row of the profiling table for a (model, hardware) pair —
// everything the scheduling policies consume. Catalog rows are shared and
// read-only: Lookup and RowsFor hand out pointers into one table.
type Entry struct {
	Model    model.Spec
	Hardware hardware.Spec
	// SoloSample is the per-sample latency in isolation.
	SoloSample time.Duration
	// FBR is the fractional bandwidth requirement (0 on CPU nodes).
	FBR float64
	// PreferredBatch is the configured batch size.
	PreferredBatch int
	// SoloBatch is Solo at the preferred batch size.
	SoloBatch time.Duration
	// ThroughputRPS is the sustained isolated throughput.
	ThroughputRPS float64
	// MaxResidentJobs caps spatial co-location by device memory.
	MaxResidentJobs int
	// ComputeFrac is the compute occupancy of one preferred-size batch.
	ComputeFrac float64
	// PenaltyByJobs memoizes Penalty(k*FBR) for k = 0..MPSMaxClients
	// co-located batch jobs: the contention curve Eq. (1) evaluates when
	// probing an otherwise-idle device, precomputed so the probe walk never
	// calls math.Pow.
	PenaltyByJobs []float64

	// launch (the per-batch overhead) and satBatch (SaturationBatch) are
	// the pair's two constants besides SoloSample that Solo and
	// ComputeFraction depend on, so SoloAt and ComputeAt evaluate the same
	// formulas for any batch size with no lookup.
	launch   time.Duration
	satBatch int
}

// SoloAt is Solo for the row's pair: the isolated latency of one batch.
func (e *Entry) SoloAt(batch int) time.Duration {
	if batch < 1 {
		batch = 1
	}
	return e.launch + time.Duration(batch)*e.SoloSample
}

// ComputeAt is ComputeFraction for the row's pair: the compute occupancy of
// one batch.
func (e *Entry) ComputeAt(batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	if batch >= e.satBatch {
		return 1
	}
	return float64(batch) / float64(e.satBatch)
}

// EffectiveBatchAt is EffectiveBatch for the row's pair.
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

// CanSustain is the package-level CanSustain for the row's pair.
func (e *Entry) CanSustain(rateRPS float64, maxWait time.Duration) bool {
	if rateRPS <= 0 {
		return true
	}
	b := e.EffectiveBatchAt(rateRPS, maxWait)
	util := rateRPS * e.SoloAt(b).Seconds() / float64(b)
	return util <= Headroom
}

// Lookup returns the profiling entry for a pair. Catalog pairs resolve to
// their shared precomputed row; unknown or doctored specs are profiled on
// the fly.
func Lookup(m model.Spec, hw hardware.Spec) *Entry {
	if e := tableEntry(m, hw); e != nil {
		return e
	}
	return computeEntry(m, hw)
}

func computeEntry(m model.Spec, hw hardware.Spec) *Entry {
	b := computePreferredBatch(m, hw)
	fbr := computeFBR(m, hw)
	pen := make([]float64, MPSMaxClients+1)
	for k := range pen {
		pen[k] = Penalty(float64(k) * fbr)
	}
	return &Entry{
		Model:           m,
		Hardware:        hw,
		SoloSample:      computeSoloSample(m, hw),
		FBR:             fbr,
		PreferredBatch:  b,
		SoloBatch:       computeSolo(m, hw, b),
		ThroughputRPS:   computeThroughputRPS(m, hw),
		MaxResidentJobs: computeMaxResidentJobs(m, hw),
		ComputeFrac:     computeComputeFraction(m, hw, b),
		PenaltyByJobs:   pen,
		launch:          launchOverhead(hw),
		satBatch:        SaturationBatch(m, hw),
	}
}

// Rows is one model's profiling rows, resolved once so per-tick selection
// and per-job pricing do only indexed reads: every catalog node cheapest
// first, plus the capable pool's fallback GPU. Rows are read-only.
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
// pair profiled on the fly for any other spec.
func (r *Rows) Entry(hw hardware.Spec) *Entry {
	for _, e := range r.ByCost {
		if e.Hardware == hw {
			return e
		}
	}
	return computeEntry(r.Model, hw)
}

// AppendCapable appends the capable pool (see CapablePool) to dst as rows,
// cheapest first, for callers that reuse a scratch slice across monitor
// ticks (the selection hot path). The catalog's prices are distinct, so
// filtering the cost-sorted rows in order yields exactly the sorted pool.
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
// every catalog node. tableEntry verifies specs against the snapshot by full
// struct equality, so it can never serve a stale row for a modified Spec.
var (
	catalogRows []*Rows        // by model.Catalog index
	modelIndex  map[string]int // model name -> catalogRows index
	hwIndex     map[string]int // node name -> Rows.ByCost index
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
	hwIndex = make(map[string]int)
	for i, hw := range hardware.CostSorted() {
		hwIndex[hw.Name] = i
	}
}

// tableEntry resolves a pair to its precomputed row, or nil. Both specs must
// equal their catalog snapshots exactly — name collisions with different
// field values (tests doctor specs to probe behavior) fall through to the
// compute path. Only the pair-keyed accessors use it; hot paths hold rows.
func tableEntry(m model.Spec, hw hardware.Spec) *Entry {
	mi, ok := modelIndex[m.Name]
	if !ok || catalogRows[mi].Model != m {
		return nil
	}
	hi, ok := hwIndex[hw.Name]
	if !ok {
		return nil
	}
	if e := catalogRows[mi].ByCost[hi]; e.Hardware == hw {
		return e
	}
	return nil
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

// Headroom is the fraction of a node's sustainable throughput the capacity
// probes consider usable; running hotter leaves no slack for burst noise.
const Headroom = 0.85

// EffectiveBatch returns the batch size actually reachable at the given
// arrival rate when requests may only be held for maxWait before dispatch:
// min(PreferredBatch, rate*maxWait), at least 1. Under low rates batches run
// partially filled — the paper's flexible batch sizes.
func EffectiveBatch(m model.Spec, hw hardware.Spec, rateRPS float64, maxWait time.Duration) int {
	b := int(rateRPS * maxWait.Seconds())
	if pref := PreferredBatch(m, hw); b > pref {
		b = pref
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
func CanSustain(m model.Spec, hw hardware.Spec, rateRPS float64, maxWait time.Duration) bool {
	if rateRPS <= 0 {
		return true
	}
	b := EffectiveBatch(m, hw, rateRPS, maxWait)
	util := rateRPS * Solo(m, hw, b).Seconds() / float64(b)
	return util <= Headroom
}

// capabilityMaxWait is the batching-delay budget used by the capability
// probes: a quarter of the SLO, leaving the rest for execution.
func capabilityMaxWait(slo time.Duration) time.Duration { return slo / 4 }

// CapablePool returns the hardware candidates able to serve the workload at
// the given sustained request rate within the SLO — the pool the Hardware
// Selection module explores (Algorithm 1's get_HW_pool). A node qualifies
// when (i) one batch executes within the SLO in isolation, leaving room for
// batching delay, and (ii) it sustains the rate (CanSustain) at the batch
// sizes reachable within the SLO's batching budget. The returned pool is
// sorted cheapest first; it is never empty — if nothing qualifies, the most
// performant GPU is returned as the fallback of last resort (matching the
// paper's escalation to the next more performant GPU when no feasible y
// exists). It is a convenience over RowsFor(m).AppendCapable.
func CapablePool(m model.Spec, rateRPS float64, slo time.Duration) []hardware.Spec {
	var pool []hardware.Spec
	for _, e := range RowsFor(m).AppendCapable(nil, rateRPS, slo) {
		pool = append(pool, e.Hardware)
	}
	return pool
}
