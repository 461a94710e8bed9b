// Package paldia is the public API of the Paldia reproduction: a simulated
// heterogeneous serverless platform (CPU and GPU worker nodes, containers,
// request batching, autoscaling) together with the paper's scheduling
// contribution — cost-aware hardware selection (Algorithm 1) and hybrid
// time/spatial GPU sharing driven by the Eq. (1) performance model — and
// every baseline the paper evaluates against.
//
// The typical flow is three lines: build a trace, pick a scheme, run.
//
//	tr := paldia.AzureTrace(42, 450, 25*time.Minute)
//	res := paldia.Run(paldia.Config{
//		Model:  paldia.MustModel("ResNet 50"),
//		Trace:  tr,
//		Scheme: paldia.NewPaldia(),
//	})
//	fmt.Printf("SLO compliance %.2f%% at $%.4f\n", res.SLOCompliance*100, res.Cost)
//
// The experiment harness behind every figure and table of the paper is
// available through Experiments, ExperimentIDs and RunExperiment.
package paldia

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config describes one serving simulation; see the field documentation on
// the underlying type for every knob (SLO, dispatch window, failure
// injection, host contention, ...). The scheme's hardware rule picks every
// serving node, the warm-start one included: to run on fixed hardware, pass
// a pinned scheme (NewPaldiaPinned, NewOfflineHybrid, the (P) baselines).
type Config = core.Config

// Result carries everything a run produces: the per-request collector, SLO
// compliance, latency percentiles, dollar cost, energy, utilization,
// cold-start counters and the hardware-residency breakdown.
type Result = core.Result

// Scheme is a request-serving scheme (policy plus runtime options).
type Scheme = core.Scheme

// Trace is a request arrival trace.
type Trace = trace.Trace

// ModelSpec describes one inference workload.
type ModelSpec = model.Spec

// HardwareSpec describes one worker node type.
type HardwareSpec = hardware.Spec

// Run executes one serving simulation.
func Run(cfg Config) Result { return core.Run(cfg) }

// Workload pairs a model with its arrival trace for multi-tenant serving.
type Workload = core.Workload

// MultiConfig describes a multi-tenant simulation: several workloads
// co-served on one shared node at a time, each with its own batcher,
// predictor, split decision and container pool.
type MultiConfig = core.MultiConfig

// MultiResult aggregates a multi-tenant run.
type MultiResult = core.MultiResult

// RunMulti executes a multi-tenant serving simulation.
func RunMulti(cfg MultiConfig) MultiResult { return core.RunMulti(cfg) }

// DefaultSLO is the paper's 200 ms latency target.
const DefaultSLO = core.DefaultSLO

// --- Schemes -----------------------------------------------------------------

// NewPaldia returns the paper's scheme: Algorithm 1 hardware selection with
// EWMA prediction and hybrid time/spatial GPU sharing.
func NewPaldia() Scheme { return core.NewPaldia() }

// NewOracle returns the clairvoyant upper bound: Paldia's policies with
// exact future knowledge and pre-positioned hardware.
func NewOracle() Scheme { return core.NewOracle() }

// NewINFlessLlamaCost returns INFless/Llama ($): cheapest isolated-capable
// hardware, every batch spatially shared via MPS.
func NewINFlessLlamaCost() Scheme { return core.NewINFlessLlamaCost() }

// NewINFlessLlamaPerf returns INFless/Llama (P): always the most performant
// GPU, every batch spatially shared.
func NewINFlessLlamaPerf() Scheme { return core.NewINFlessLlamaPerf() }

// NewMoleculeCost returns Molecule (beta) ($): cheapest isolated-capable
// hardware, time sharing only.
func NewMoleculeCost() Scheme { return core.NewMoleculeCost() }

// NewMoleculePerf returns Molecule (beta) (P): most performant GPU, time
// sharing only.
func NewMoleculePerf() Scheme { return core.NewMoleculePerf() }

// NewOfflineHybrid pins hardware and queues a fixed fraction of every
// window's requests — the motivation study's offline-swept hybrid.
func NewOfflineHybrid(hw HardwareSpec, queuedFraction float64) Scheme {
	return core.NewOfflineHybrid(hw, queuedFraction)
}

// NewPaldiaPinned keeps Paldia's hybrid splitting on pinned hardware (the
// resource-exhaustion configuration).
func NewPaldiaPinned(hw HardwareSpec) Scheme { return core.NewPaldiaPinned(hw) }

// StandardSchemes returns the paper's five evaluated schemes in plotting
// order.
func StandardSchemes() []Scheme { return core.StandardSchemes() }

// Policy is the extension point for custom serving schemes: a
// hardware-selection rule plus a GPU-sharing split. See the interface
// documentation for the contract of each method.
type Policy = core.Policy

// State is the serving snapshot a Policy decides on.
type State = core.State

// NewScheme wraps a custom Policy into a runnable Scheme.
func NewScheme(p Policy) Scheme { return Scheme{Policy: p} }

// --- Catalogs ----------------------------------------------------------------

// Models returns the 16 evaluated workloads (12 vision, 4 language).
func Models() []ModelSpec { return model.Catalog() }

// VisionModels returns the 12 image-classification workloads.
func VisionModels() []ModelSpec { return model.VisionModels() }

// LanguageModels returns the 4 sequence-classification workloads.
func LanguageModels() []ModelSpec { return model.LanguageModels() }

// Model looks a workload up by name.
func Model(name string) (ModelSpec, bool) { return model.ByName(name) }

// MustModel is Model that panics on unknown names.
func MustModel(name string) ModelSpec { return model.MustByName(name) }

// Hardware returns the Table II node catalog.
func Hardware() []HardwareSpec { return hardware.Catalog() }

// HardwareByName looks a node type up by instance or accelerator name.
func HardwareByName(name string) (HardwareSpec, bool) { return hardware.ByName(name) }

// MostPerformantGPU returns the V100 node — the hardware the (P) baselines
// pin themselves to.
func MostPerformantGPU() HardwareSpec { return hardware.MostPerformant(hardware.GPU) }

// --- Traces ------------------------------------------------------------------

// AzureTrace synthesizes the paper's Azure serverless sample: sparse
// background traffic with occasional surges, peak:mean ~12.
func AzureTrace(seed uint64, peakRPS float64, dur time.Duration) *Trace {
	return trace.Azure(sim.NewRNG(seed), peakRPS, dur)
}

// WikipediaTrace synthesizes the diurnal 5-day Wikipedia trace,
// time-compressed by the given factor (use trace-default 48 via
// DefaultWikipediaCompression).
func WikipediaTrace(seed uint64, peakRPS float64, days, compression int) *Trace {
	return trace.Wikipedia(sim.NewRNG(seed), peakRPS, days, compression)
}

// DefaultWikipediaCompression is the default time compression for the
// Wikipedia trace.
const DefaultWikipediaCompression = trace.WikipediaCompression

// TwitterTrace synthesizes the erratic, dense Twitter trace at the target
// mean rate.
func TwitterTrace(seed uint64, meanRPS float64, dur time.Duration) *Trace {
	return trace.Twitter(sim.NewRNG(seed), meanRPS, dur)
}

// PoissonTrace synthesizes a constant-rate Poisson arrival process.
func PoissonTrace(seed uint64, rateRPS float64, dur time.Duration) *Trace {
	return trace.Poisson(sim.NewRNG(seed), rateRPS, dur)
}

// StableTrace synthesizes the gently varying trace of the motivation study.
func StableTrace(seed uint64, meanRPS float64, dur time.Duration) *Trace {
	return trace.Stable(sim.NewRNG(seed), meanRPS, dur)
}

// LoadTrace parses a trace from the one-arrival-per-line format written by
// SaveTrace and `paldia-trace -dump`, so real traces can be replayed.
func LoadTrace(r io.Reader, name string) (*Trace, error) { return trace.Load(r, name) }

// SaveTrace writes a trace in the loadable line format.
func SaveTrace(w io.Writer, t *Trace) error { return t.Save(w) }

// TraceFromArrivals builds a trace from raw arrival offsets.
func TraceFromArrivals(name string, arrivals []time.Duration, duration time.Duration) *Trace {
	return trace.FromArrivals(name, arrivals, duration)
}

// --- Predictors ----------------------------------------------------------------

// Predictor estimates near-future request rates; plug a custom one in via
// Config.NewPredictor (the paper calls its predictor "lightweight,
// pluggable").
type Predictor = predict.Predictor

// NewEWMAPredictor returns the paper's default: an asymmetric EWMA with a
// noise-gated trend over the given observation window.
func NewEWMAPredictor(window time.Duration) Predictor { return predict.NewEWMA(window) }

// StaticPredictor always predicts a fixed rate (tests and ablations).
func StaticPredictor(rps float64) Predictor { return predict.Static{RPS: rps} }

// --- Experiments ---------------------------------------------------------------

// ExperimentOptions control experiment scale; the zero value means defaults
// (seed 42, 3 repetitions, paper-scale traces).
type ExperimentOptions = experiments.Options

// ExperimentTable is a rendered experiment result.
type ExperimentTable = experiments.Table

// Pool bounds how many simulations execute at once; one Pool can be shared
// by every concurrently running comparison so nested fan-out never
// oversubscribes the machine. Pool.Map(n, fn) runs indexed work items and
// returns once all finished; collecting results by index keeps output
// byte-identical to a serial loop at any pool size.
type Pool = experiments.Pool

// NewPool returns a pool admitting n simulations at once (minimum 1).
func NewPool(n int) *Pool { return experiments.NewPool(n) }

// ExperimentIDs lists the regenerable figures and tables.
func ExperimentIDs() []string { return experiments.Order() }

// RunExperiment regenerates one of the paper's figures or tables.
func RunExperiment(id string, o ExperimentOptions) (*ExperimentTable, error) {
	r, ok := experiments.Registry()[id]
	if !ok {
		return nil, fmt.Errorf("paldia: unknown experiment %q", id)
	}
	return r(o), nil
}

// RunAllExperiments regenerates the full evaluation in the paper's order.
func RunAllExperiments(o ExperimentOptions) []*ExperimentTable {
	return experiments.All(o)
}
