package core

import (
	"slices"
	"time"

	"repro/internal/autoscale"
	"repro/internal/batch"
	"repro/internal/cluster"
	"repro/internal/container"
	"repro/internal/device"
	"repro/internal/hardware"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Defaults for the serving runtime's time constants.
const (
	// DefaultSLO is the paper's 200 ms target for every workload.
	DefaultSLO = 200 * time.Millisecond
	// DefaultDispatchWindow is the batching/dispatch cadence.
	DefaultDispatchWindow = 25 * time.Millisecond
	// DefaultMonitorInterval is the Hardware Selection cadence (Algorithm
	// 1's Monitor_Interval); with Paldia's wait_limit of 3 a switch commits
	// after ~3 intervals of consistent mismatch.
	DefaultMonitorInterval = 250 * time.Millisecond
	// DefaultHorizon is the prediction lookahead (~4 s, the hardware
	// acquisition lead time).
	DefaultHorizon = 4 * time.Second
	// DefaultObserveWindow is the rate-observation window feeding the EWMA.
	DefaultObserveWindow = 500 * time.Millisecond
	// DefaultDrain is how long after the trace ends in-flight work may
	// complete.
	DefaultDrain = 30 * time.Second
	// DefaultHWLead is the lookahead used when selecting hardware: it covers
	// the decision debounce, VM procurement, the exposed tail of container
	// spawning, and one further re-decision cycle, so that the node chosen
	// mid-ramp is still capable when traffic keeps building (the paper
	// chooses its pool "so as to allow enough time to acquire the
	// hardware").
	DefaultHWLead = 15 * time.Second
	// swapTail is the exposed part of container spawning on a newly
	// acquired node; the rest overlaps the VM launch.
	swapTail = time.Second
	// laneCap bounds the time-share jobs handed to a device ahead of
	// execution; the rest of the backlog waits in the batcher, where it can
	// be rerouted if the scheme switches hardware. (Spatial submissions are
	// deliberately unbounded — MPS-only schemes consolidate every batch onto
	// the GPU, which is exactly their documented failure mode.)
	laneCap = 3
	// minHold blocks switches to *cheaper* hardware within this span of the
	// last switch, preventing downgrade thrash right after a surge; upgrades
	// are never delayed. Downgrades additionally require a longer run of
	// consistent mismatches (downgradeFactor x the policy's wait limit).
	minHold         = 20 * time.Second
	downgradeFactor = 4
)

// MetricsMode selects the run's metrics aggregator.
type MetricsMode int

const (
	// MetricsExact keeps every Record in a metrics.Collector — exact
	// percentiles, CDFs and tail breakdowns, O(N) memory. The default.
	MetricsExact MetricsMode = iota
	// MetricsOnline uses the constant-memory streaming aggregator: counts,
	// compliance, cost and goodput are exact; P50/P95/P99 come from P²
	// sketches. Result.Collector is nil, Result.Online is set.
	MetricsOnline
)

// Config describes one serving simulation.
type Config struct {
	Model  model.Spec
	Trace  *trace.Trace
	Scheme Scheme

	// Stream, when set, supplies arrivals lazily instead of Trace: the
	// runner pulls one arrival at a time, so multi-million-request traces
	// never materialize. When both are set, Stream wins. Clairvoyant schemes
	// still need a materialized trace (set Trace, or use a Stream that
	// implements trace.Materializer).
	Stream trace.Stream

	// Metrics selects the aggregator; the zero value is the exact Collector.
	Metrics MetricsMode

	// Aggregator, when set, overrides Metrics: the run feeds this aggregator
	// instead of constructing its own. The live observability plane passes
	// the metrics.Online it also serves mid-run snapshots from, so /metrics
	// reads the very sketch the simulation is filling. The aggregator must
	// be fresh (single-run) and judge against the same SLO as the config.
	Aggregator metrics.Aggregator

	// Pacer, when set, observes every advance of the virtual clock — once
	// per distinct instant, before the events there fire — and may block:
	// the wall-clock replay driver (internal/obs) sleeps here to map virtual
	// time onto real time at a configured speedup. It must not mutate
	// simulation state, so the run's trajectory and outputs are identical
	// with or without it; nil costs one branch per clock advance.
	Pacer func(now time.Duration)

	// SLO defaults to 200 ms.
	SLO time.Duration
	// Seed drives all randomness (trace realization happens before the
	// runner; this seed only matters if the runner ever needs randomness).
	Seed uint64

	// DispatchWindow, MonitorInterval, Horizon, HWLead, ObserveWindow and
	// KeepAlive default to the package constants /
	// container.DefaultKeepAlive.
	DispatchWindow  time.Duration
	MonitorInterval time.Duration
	Horizon         time.Duration
	HWLead          time.Duration
	ObserveWindow   time.Duration
	KeepAlive       time.Duration

	// HostFactorCPU/GPU inflate execution on each node class (mixed-workload
	// study); zero means no inflation.
	HostFactorCPU float64
	HostFactorGPU float64

	// FailureEvery/FailureDuration inject node failures (node-failure
	// study); zero disables.
	FailureEvery    time.Duration
	FailureDuration time.Duration

	// SpotDiscount and SpotFraction turn serving nodes into spot
	// (preemptible) capacity: spot nodes bill at (1-SpotDiscount) of the
	// catalog rate and are the targets of revocation. With a redundancy
	// scheme, SpotFraction of the hardware pools (rounded, the costlier
	// ones first) run on spot; without one, any positive fraction makes
	// every serving node spot. Zero for either disables spot entirely.
	SpotDiscount float64
	SpotFraction float64

	// RevokeEvery injects a spot revocation on this cadence: the targeted
	// node gets RevokeNotice of drain time, then whatever is still running
	// is killed and the node is released (never to recover). Zero disables.
	RevokeEvery  time.Duration
	RevokeNotice time.Duration

	// Forecaster selects the rate-forecasting model by name ("ewma",
	// "seasonal", "percentile", "p99" — see predict.Names). Empty means
	// "ewma", the paper's model. Ignored for clairvoyant schemes and when
	// NewPredictor is set.
	Forecaster string

	// NewPredictor overrides the rate forecaster with an arbitrary
	// constructor (the paper's is "a lightweight, pluggable model (EWMA in
	// our case)"). Ignored for clairvoyant schemes. Nil uses Forecaster.
	NewPredictor func() predict.Predictor

	// UniformBatching disables the paper's flexible batch sizes: requests
	// dispatch only as full preferred-size batches, with leftovers flushed
	// once the oldest has waited a quarter of the SLO. The paper argues
	// uniform batching "would hinder" the hybrid scheduler; this flag is the
	// ablation that measures it.
	UniformBatching bool

	// MaxNodes enables horizontal scale-out beyond the paper: when even the
	// selected node type cannot sustain the forecast rate alone, up to this
	// many replicas of it are acquired and load is spread across them.
	// Zero or one keeps the paper's single-serving-node behaviour.
	MaxNodes int

	// InitialHardware overrides the warm-start node choice.
	InitialHardware *hardware.Spec

	// OnEvent, when set, receives coarse runtime events (hardware switches,
	// cold starts, failovers) as strings. It is served through the typed
	// telemetry bus via telemetry.AdaptOnEvent; new consumers should set
	// Telemetry instead.
	OnEvent func(t time.Duration, kind, detail string)

	// Telemetry, when set, receives every typed runtime event: per-request
	// lifecycle (arrived/batched/dispatched/queued/exec/completed), container
	// and node activity, hardware selection, and Sample observations when
	// SampleEvery is set. Nil disables the layer at the cost of one branch
	// per emission site.
	Telemetry telemetry.Sink

	// SampleEvery is the virtual-time cadence at which runtime gauges (queue
	// depth, lane backlog, container counts, predicted vs observed RPS,
	// accrued cost, ...) are sampled into the Telemetry sink. Zero disables
	// sampling.
	SampleEvery time.Duration

	// Invariants, when set, audits the whole simulation while it runs:
	// request conservation, device capacity, container lifecycle algebra,
	// node/billing monotonicity, and span telescoping (see package
	// invariant). A checker is single-run: pass a fresh one per Run. Nil
	// disables checking at the cost of one branch per hook site.
	Invariants *invariant.Checker
}

func (c *Config) applyDefaults() {
	if c.SLO == 0 {
		c.SLO = DefaultSLO
	}
	if c.DispatchWindow == 0 {
		c.DispatchWindow = DefaultDispatchWindow
	}
	if c.MonitorInterval == 0 {
		c.MonitorInterval = DefaultMonitorInterval
	}
	if c.Horizon == 0 {
		c.Horizon = DefaultHorizon
	}
	if c.HWLead == 0 {
		c.HWLead = DefaultHWLead
	}
	if c.ObserveWindow == 0 {
		c.ObserveWindow = DefaultObserveWindow
	}
	if c.KeepAlive == 0 {
		c.KeepAlive = container.DefaultKeepAlive
	}
}

// Result is everything one run produces.
type Result struct {
	Scheme string
	Model  string

	// Collector is the exact aggregator (MetricsExact runs); nil when the
	// run used MetricsOnline, in which case Online is set instead.
	Collector *metrics.Collector
	// Online is the constant-memory aggregator (MetricsOnline runs).
	Online *metrics.Online

	Requests      int
	SLOCompliance float64
	P50, P99      time.Duration
	MeanLatency   time.Duration

	// Cost is total dollars; CPUCost/GPUCost split it by node class.
	Cost, CPUCost, GPUCost float64
	EnergyWh, AvgPowerW    float64
	UtilCPU, UtilGPU       float64

	// Boots counts container cold boots; SyncColdStarts the request-blocking
	// subset.
	Boots, SyncColdStarts uint64
	// Switches counts hardware reconfigurations.
	Switches int
	// FailedRequests counts requests lost to node failures.
	FailedRequests int
	// FailuresInjected counts induced node failures.
	FailuresInjected int
	// HeldBySpec is the node-residency breakdown: total held time per node
	// type.
	HeldBySpec map[string]time.Duration
	// SwitchHistory is the primary-node timeline: one entry per serving
	// node, in order, starting with the warm-start node.
	SwitchHistory []SwitchEvent
}

// SwitchEvent records the primary node changing to a new node type.
type SwitchEvent struct {
	// At is when the node began serving.
	At time.Duration
	// Spec is the node type's instance name.
	Spec string
}

// tenant is one workload served by the runtime: its model, arrival stream,
// batcher, aggregator, forecast and observed-rate window. A single-workload
// run has one tenant; a multi-tenant run (RunMulti) has one per workload, all
// sharing the serving node.
type tenant struct {
	idx   int // workload index: Event.Tenant, pool and controller labels
	model model.Spec
	arr   trace.Stream // arrival source (Stream, or Trace adapted)
	bat   batch.Batcher
	col   metrics.Aggregator

	// rows are the model's profiling rows, resolved once at start: every
	// selection pass and lane entry reads them instead of re-finding a
	// (model, node) pair by name.
	rows *profile.Rows
	// perSample is the model's solo per-sample time on the reference GPU,
	// the unit desiredHardware converts other tenants' load into.
	perSample float64

	// predictAt is the confidence-gated forecast: below the confidence
	// floor it returns the observed rate (see setupPredictor).
	predictAt func(now, horizon time.Duration) float64
	onArrive  func(now time.Duration)

	// observed-rate bookkeeping
	obsWindow      time.Duration
	obsWindowStart time.Duration
	obsCount       int
	obsRate        float64
}

// lane is one tenant's share of a serving node: its container pool, profile
// entry, predictive autoscaler and time-share lane claim.
type lane struct {
	pool  *container.Pool
	entry *profile.Entry // the tenant's row for the node; read-only
	ctl   *autoscale.Controller

	queuedOutstanding int
	laneHeld          bool     // a lane-container claim exists
	laneReady         bool     // the lane container is serving
	lanePending       []func() // lane submissions buffered until the claim lands
}

// servingNode is an acquired node actively (or about to be) serving, with one
// lane per tenant.
type servingNode struct {
	node  *cluster.Node
	lanes []lane

	// resCap memoizes residentCap for clone/hedge admission; 0 until first
	// computed.
	resCap int
}

// healthy reports whether sn can take new work: it exists (a slot's node is
// nil while its replacement procures), its device has not failed, and it has
// no revocation notice (a revoked node drains out). A wired node always has
// its device.
func (sn *servingNode) healthy() bool {
	return sn != nil && !sn.node.Device.Failed() && !sn.node.Revoked()
}

// outstanding is the node's queued-lane jobs summed over its lanes.
func (sn *servingNode) outstanding() int {
	n := 0
	for i := range sn.lanes {
		n += sn.lanes[i].queuedOutstanding
	}
	return n
}

// slot is one serving position of the runtime: a node type, whether it runs
// on spot capacity, the node serving it and whether a procurement for it is
// in flight. Split-dispatch schemes hold the primary at slot 0 — the node
// Algorithm 1 selects and fails over — and same-type scale-out replicas after
// it; clone and hedge schemes hold their hardware pools at slots 0..k-1.
type slot struct {
	spec      hardware.Spec
	spot      bool
	pool      bool         // a clone/hedge pool: respawned in kind (redundancy.go)
	sn        *servingNode // nil while a replacement procures
	acquiring bool
}

type runner struct {
	cfg     Config
	eng     *sim.Engine
	clu     *cluster.Cluster
	tenants []*tenant

	// tel is the combined telemetry sink (Config.Telemetry plus the adapted
	// legacy OnEvent); nil when both are unset. jobSeq numbers device jobs
	// from 1 so spans can be joined to job-level events; it stays 0 (all jobs
	// untracked) when telemetry is off.
	tel    telemetry.Sink
	jobSeq int64

	// slots is the run's node set (see slot); never empty.
	slots []*slot

	// red, when set, replaces the split-dispatch and hardware-selection
	// paths with redundant dispatch over static hardware pools (clone-to-k
	// or hedging; see redundancy.go). Nil for every non-redundant scheme,
	// leaving their event sequences untouched.
	red *redundancy

	lastScale time.Duration // last scale-out or scale-in (MaxNodes > 1)

	// failCursor and revokeCursor round-robin fault injection over the
	// slots it may hit.
	failCursor   int
	revokeCursor int

	waitCtr  int
	switches int
	failures int
	failedRq int
	history  []SwitchEvent

	arrived  int // arrivals fed to the batchers so far
	end      time.Duration
	lastSwap time.Duration

	// stScratch backs the *State handed to policies. stateWithRates rebuilds
	// it from scratch on every call and no caller retains the pointer past
	// the policy invocation, so one per runner keeps the monitor and dispatch
	// paths allocation-free. nodesScratch likewise backs healthyNodes, and
	// predScratch/obsScratch the per-tenant rates of a selection pass.
	stScratch    State
	nodesScratch []*servingNode
	predScratch  []float64
	obsScratch   []float64

	// jobPool recycles per-dispatch jobState values (device job + request
	// batch + bound closures); sizesScratch backs the per-window batch-size
	// partition. Together they make the dispatch/complete cycle
	// allocation-free in steady state.
	jobPool      []*jobState
	sizesScratch []int

	boots, syncColds uint64 // accumulated from retired pools
}

// Run executes the configured simulation and returns its results. It is
// exactly Start followed by Finish; the phased form exists so a caller (the
// sharded executor in internal/shard) can interleave StepTo calls with other
// lanes' — Engine.Run(a); Engine.Run(b) fires the identical event sequence as
// Engine.Run(b) for a < b, so the phased run is byte-identical to this one.
func Run(cfg Config) Result {
	return Start(cfg).Finish()
}

// Running is an in-flight simulation between Start and Finish. It is not safe
// for concurrent use — one goroutine drives one Running — but distinct
// Running values share nothing and may be driven from distinct goroutines.
type Running struct {
	r    *runner
	done bool
}

// Start constructs the simulation — cluster, warm-start node, arrival stream,
// dispatch/monitor/failure ticks — without firing any timed event past t=0.
// Drive it with StepTo and settle it with Finish, or call Finish directly for
// the whole run.
func Start(cfg Config) *Running {
	return start(cfg, []Workload{{Model: cfg.Model, Trace: cfg.Trace, Stream: cfg.Stream}})
}

// start builds the runtime serving ws on one node at a time. Single-workload
// runs (Start) pass one workload; RunMulti passes one per tenant.
func start(cfg Config, ws []Workload) *Running {
	cfg.applyDefaults()
	r := &runner{
		cfg: cfg,
		eng: sim.NewEngine(),
	}
	ref := hardware.MostPerformant(hardware.GPU)
	for i, w := range ws {
		t := &tenant{idx: i, model: w.Model, arr: w.Stream, obsWindow: cfg.ObserveWindow}
		if t.arr == nil {
			t.arr = w.Trace.Stream()
		}
		r.setupPredictor(t, w.Trace)
		t.rows = profile.RowsFor(w.Model)
		t.perSample = t.rows.Entry(ref).SoloSample.Seconds()
		if d := t.arr.Duration(); d > r.end {
			r.end = d
		}
		r.tenants = append(r.tenants, t)
	}
	for _, t := range r.tenants {
		switch {
		case cfg.Aggregator != nil:
			t.col = cfg.Aggregator
		case cfg.Metrics == MetricsOnline:
			t.col = metrics.NewOnline(cfg.SLO, r.end, metrics.DefaultGoodputWindow)
		default:
			t.col = metrics.NewCollector(cfg.SLO)
		}
	}
	if cfg.Pacer != nil {
		r.eng.SetOnAdvance(cfg.Pacer)
	}
	r.clu = cluster.New(r.eng)
	r.tel = telemetry.Combine(cfg.Telemetry, telemetry.AdaptOnEvent(cfg.OnEvent),
		cfg.Invariants.AsSink())
	r.clu.Sink = r.tel
	if cfg.Invariants != nil {
		r.eng.SetOnFire(cfg.Invariants.Tick)
		r.clu.Check = cfg.Invariants
	}
	if cfg.Scheme.Redundancy.Active() {
		r.red = newRedundancy(r)
	} else {
		p := &slot{spot: cfg.SpotDiscount > 0 && cfg.SpotFraction > 0}
		r.slots = []*slot{p}
		p.spec = r.initialHardware()
	}
	r.warmStart()
	if r.tel != nil && cfg.SampleEvery > 0 {
		telemetry.NewSampler(r.eng, r.tel, cfg.SampleEvery, r.gauges()).Start()
	}
	for _, t := range r.tenants {
		r.scheduleArrivals(t)
	}
	// Dispatch and hardware selection keep running while a backlog drains
	// past the trace end (a failover may have left the system on an
	// undersized node); fault injection stops with the trace.
	r.every(cfg.DispatchWindow, true, r.dispatchTick)
	r.every(cfg.MonitorInterval, true, r.monitorTick)
	if cfg.FailureEvery > 0 {
		r.every(cfg.FailureEvery, false, r.failureTick)
	}
	if cfg.RevokeEvery > 0 {
		r.every(cfg.RevokeEvery, false, r.revokeTick)
	}
	return &Running{r: r}
}

// every runs tick each interval, rescheduling it first: until the trace
// ends, or with drain until the batchers' backlog has drained as well. The
// rescheduling closure is bound once, so a tick allocates nothing.
func (r *runner) every(interval time.Duration, drain bool, tick func()) {
	var fn func()
	fn = func() {
		if r.eng.Now() < r.end || drain && r.pending() > 0 {
			r.eng.Schedule(interval, fn)
		}
		tick()
	}
	r.eng.Schedule(interval, fn)
}

// Now returns the simulation's current virtual time.
func (ru *Running) Now() time.Duration { return ru.r.eng.Now() }

// End returns the arrival stream's duration (the trace end).
func (ru *Running) End() time.Duration { return ru.r.end }

// Horizon is the virtual time Finish drives the run to before settling:
// trace end plus the drain window. StepTo clamps to it.
func (ru *Running) Horizon() time.Duration { return ru.r.end + DefaultDrain }

// Count returns the number of request outcomes recorded so far.
func (ru *Running) Count() int { return ru.r.count() }

// StepTo fires every event up to and including virtual time t (clamped to
// Horizon), leaving the clock at min(t, Horizon). Calls with t <= Now are
// no-ops, so any monotone schedule of StepTo calls ending at Horizon fires
// exactly the event sequence one Finish would.
func (ru *Running) StepTo(t time.Duration) {
	if h := ru.Horizon(); t > h {
		t = h
	}
	ru.r.eng.Run(t)
}

// Finish drives the simulation to Horizon, keeps simulating while backlogged
// requests still drain, records anything still unserved as failed, and returns the
// run's Result. It must be called exactly once.
func (ru *Running) Finish() Result {
	ru.settle()
	return ru.r.results()
}

// settle is Finish without the Result: it runs the simulation to completion,
// fails whatever is still unserved and audits the outcome.
func (ru *Running) settle() {
	if ru.done {
		panic("core: Running.Finish called twice")
	}
	ru.done = true
	r := ru.r
	r.eng.Run(r.end + DefaultDrain)
	// Overloaded runs can still hold deep backlogs at the drain bound; keep
	// simulating until every request completes (so conservation holds and
	// stragglers are recorded with their true, awful latencies), giving up
	// only if a whole chunk passes without any progress.
	for guard := 0; r.count() < r.arrived && guard < 720; guard++ {
		before := r.count()
		r.eng.Run(r.eng.Now() + 60*time.Second)
		if r.count() == before {
			break
		}
	}
	// Anything still unserved (e.g. no healthy node ever came back) is
	// recorded as failed.
	for _, t := range r.tenants {
		reqs := t.bat.TakeAll()
		e := telemetry.Ev(r.eng.Now(), telemetry.Failed)
		e.Tenant = t.idx
		r.emitReqs(e, reqs)
		// Never dispatched: no batch wait is attributed.
		for i := range reqs {
			r.record(t, reqs[i:i+1], reqs[i].Arrival, metrics.Record{Failed: true})
		}
	}
	if r.cfg.Invariants != nil {
		r.cfg.Invariants.CheckResult(r.eng.Now(), r.count(), r.failedRq, r.failures)
	}
}

// count is the number of request outcomes recorded across tenants.
func (r *runner) count() int {
	n := 0
	for _, t := range r.tenants {
		n += t.col.Count()
	}
	return n
}

// pending is the number of requests waiting in the tenants' batchers.
func (r *runner) pending() int {
	n := 0
	for _, t := range r.tenants {
		n += t.bat.Pending()
	}
	return n
}

// setupPredictor installs t's forecast; clairvoyant schemes read tr, or the
// trace behind a materialized stream.
func (r *runner) setupPredictor(t *tenant, tr *trace.Trace) {
	if r.cfg.Scheme.Clairvoyant {
		if tr == nil {
			var ok bool
			if tr, ok = trace.Materialized(t.arr); !ok {
				panic("core: clairvoyant scheme needs a materialized trace " +
					"(set Trace, or a Stream implementing trace.Materializer)")
			}
		}
		c := predict.NewClairvoyant(tr)
		t.predictAt = c.PredictRPS
		t.onArrive = func(time.Duration) {}
		return
	}
	obs := predict.NewWindowObserver(newForecaster(r.cfg), r.cfg.ObserveWindow)
	// The confidence gate lives at the source, so every consumer of the
	// forecast — hardware selection, the container autoscaler, telemetry
	// gauges — sees the same gated value: when the forecaster reports
	// confidence below the floor, the forecast is replaced with the
	// reactive observed rate (see DESIGN.md §10). Confidence is read
	// after PredictRPS flushed windows up to now, so it reflects the
	// same forecaster state as the forecast it gates.
	t.predictAt = func(now, horizon time.Duration) float64 {
		pred := obs.PredictRPS(now, horizon)
		if obs.Confidence() < predict.ConfidenceFloor {
			return t.observedRPS(now)
		}
		return pred
	}
	t.onArrive = obs.Arrive
}

// newForecaster resolves the configured forecasting model: the NewPredictor
// hook wins, then the Forecaster name, then the paper's EWMA. An unknown
// name panics — Config.Validate reports it gracefully up front.
func newForecaster(cfg Config) predict.Forecaster {
	if cfg.NewPredictor != nil {
		return cfg.NewPredictor()
	}
	f, err := predict.NewByName(cfg.Forecaster, cfg.ObserveWindow)
	if err != nil {
		panic("core: " + err.Error())
	}
	return f
}

// initialHardware is the primary's warm-start node type: the configured
// override, else the scheme's choice for the traces' opening rates.
func (r *runner) initialHardware() hardware.Spec {
	if r.cfg.InitialHardware != nil {
		return *r.cfg.InitialHardware
	}
	init := r.predScratch[:0]
	for _, t := range r.tenants {
		init = append(init, t.arr.InitRPS(2*time.Second))
	}
	r.predScratch = init
	return r.desiredHardware(init, init)
}

// warmStart brings up every slot's node with warm containers, as a system
// already in service would have. A node's two warm containers are shared
// among its tenants, at least one each.
func (r *runner) warmStart() {
	for _, s := range r.slots {
		r.procure(s, max(1, 2/len(r.tenants)), nil)
	}
	r.history = append(r.history, SwitchEvent{At: 0, Spec: r.slots[0].spec.Name})
}

// primary is the split-dispatch primary's serving node (slot 0); nil for
// clone and hedge runs, whose pools are peers.
func (r *runner) primary() *servingNode {
	if s := r.slots[0]; !s.pool {
		return s.sn
	}
	return nil
}

// procure brings a node of s.spec up for slot s — on spot capacity when the
// slot is spot — and lands it there: the node becomes s's serving node, its
// autoscalers start, and land (when set) finishes the slot role's
// bookkeeping with the node it displaced. Every acquisition goes through
// here: warm start, Algorithm 1's reconfigure and failover, scale-out, and
// pool respawn and upgrade.
//
// With warm > 0 the node is acquired at once with that many warm containers
// per lane (warm start, instant procurement). Otherwise the VM launches in
// the background and container spawning overlaps it (Algorithm 1 does both
// before rerouting), so only a short boot tail is exposed: the lanes
// pre-warm for the predicted load, and the node lands swapTail later.
func (r *runner) procure(s *slot, warm int, land func(sn, old *servingNode)) {
	disc := 0.0
	if s.spot {
		disc = r.cfg.SpotDiscount
	}
	maxRes := r.maxResident(s.spec)
	if warm > 0 {
		sn := r.wireNode(r.clu.AcquireSpot(s.spec, maxRes, disc))
		for i := range sn.lanes {
			sn.lanes[i].pool.AddWarm(warm)
		}
		r.serve(s, sn, land)
		return
	}
	s.acquiring = true
	r.clu.AcquireAsyncSpot(s.spec, maxRes, disc, func(node *cluster.Node) {
		sn := r.wireNode(node)
		for i, t := range r.tenants {
			ln := &sn.lanes[i]
			ln.pool.EnsureWithin(r.prewarmTarget(s, t, ln), swapTail)
		}
		r.eng.Schedule(swapTail, func() { r.serve(s, sn, land) })
	})
}

// serve lands sn in slot s (see procure). A scale-out replica ordered for a
// type the primary has since switched away from never serves: its slot
// leaves the set and the node is released.
func (r *runner) serve(s *slot, sn *servingNode, land func(sn, old *servingNode)) {
	if p := r.slots[0]; s != p && !s.pool && sn.node.Spec != p.sn.node.Spec {
		i := slices.Index(r.slots, s)
		r.slots = slices.Delete(r.slots, i, i+1)
		r.retire(sn)
		return
	}
	old := s.sn
	s.sn, s.acquiring = sn, false
	for i := range sn.lanes {
		sn.lanes[i].ctl.Start()
	}
	if land != nil {
		land(sn, old)
	}
}

// prewarmTarget is the container count tenant t's lane on a node acquired
// for slot s pre-warms to: the predictive requirement at the current
// forecast (at least two), and for a new primary also the backlog awaiting
// reroute, so the swap does not stall on synchronous cold starts.
func (r *runner) prewarmTarget(s *slot, t *tenant, ln *lane) int {
	need := max(2, autoscale.PredictiveContainers(t.predictAt(r.eng.Now(), r.cfg.Horizon),
		residenceOf(ln.entry), ln.entry.PreferredBatch))
	if s.pool || s != r.slots[0] {
		return need
	}
	need = max(need, autoscale.ReactiveContainers(t.bat.Pending(), ln.entry.PreferredBatch))
	// In-flight jobs are bounded by device memory plus the lane, so the
	// pool never needs more than that.
	return min(need, ln.entry.MaxResidentJobs+laneCap)
}

// maxResident is the node's resident-job cap: the shared device's memory
// must fit whichever tenant packs tightest, so the smallest per-model cap.
func (r *runner) maxResident(spec hardware.Spec) int {
	n := 0
	for _, t := range r.tenants {
		if c := profile.MaxResidentJobs(t.model, spec); n == 0 || c < n {
			n = c
		}
	}
	return n
}

func (r *runner) wireNode(node *cluster.Node) *servingNode {
	cold, hostFactor := container.CPUColdStart, r.cfg.HostFactorCPU
	if node.Spec.IsGPU() {
		cold, hostFactor = container.GPUColdStart, r.cfg.HostFactorGPU
	}
	if hostFactor > 1 {
		node.Device.SetHostFactor(hostFactor)
	}
	if r.cfg.Scheme.InstantProcure {
		cold = 0
	}
	sn := &servingNode{node: node, lanes: make([]lane, len(r.tenants))}
	for i, t := range r.tenants {
		ln := &sn.lanes[i]
		ln.pool = container.NewPool(r.eng, cold, r.cfg.KeepAlive)
		ln.pool.Tenant = t.idx
		ln.entry = t.rows.Entry(node.Spec)
		if r.tel != nil {
			ln.pool.Sink = r.tel
			ln.pool.NodeID = node.ID
			ln.pool.Spec = node.Spec.Name
		}
		if r.cfg.Invariants != nil {
			ln.pool.NodeID = node.ID
			ln.pool.Check = r.cfg.Invariants
		}
		// Containers are sized for the batches resident at once: a batch
		// occupies its container for its (possibly inflated) execution time,
		// so the pool target is predicted-rate x residence / batch-size.
		// The controller is started when the node begins serving (serve);
		// starting it earlier would race the swap-time pre-warm with slower
		// predictive boots. It forecasts Config.Horizon ahead through the
		// pluggable Forecaster seam.
		ln.ctl = autoscale.NewController(r.eng, ln.pool, t.predictAt,
			func() int { return ln.entry.PreferredBatch },
			residenceOf(ln.entry))
		ln.ctl.Horizon = r.cfg.Horizon
		ln.ctl.Tenant = t.idx
		if r.tel != nil {
			ln.ctl.Sink = r.tel
			ln.ctl.NodeID = node.ID
			ln.ctl.Spec = node.Spec.Name
		}
	}
	return sn
}

// emit sends one control-plane telemetry event; a no-op without a sink.
func (r *runner) emit(kind telemetry.Kind, nodeID int, spec, detail string) {
	if r.tel == nil {
		return
	}
	e := telemetry.Ev(r.eng.Now(), kind)
	e.Node = nodeID
	e.Spec = spec
	e.Detail = detail
	r.tel.Event(e)
}

// emitReqs sends e once per request of reqs, with Req set to each request's
// ID; a no-op without a sink.
func (r *runner) emitReqs(e telemetry.Event, reqs []batch.Request) {
	if r.tel == nil {
		return
	}
	for _, q := range reqs {
		e.Req = int64(q.ID)
		r.tel.Event(e)
	}
}

// record adds one outcome per request of reqs, which left the batcher at
// dispatched and finish now, to t's aggregator. rec carries the batch-level
// components (cold start, queueing, interference, solo time, failure); each
// request's arrival, latency and batch wait are its own. Failed outcomes
// count toward FailedRequests.
func (r *runner) record(t *tenant, reqs []batch.Request, dispatched time.Duration, rec metrics.Record) {
	now := r.eng.Now()
	for _, q := range reqs {
		rec.Arrival = q.Arrival
		rec.Latency = now - q.Arrival
		rec.BatchWait = dispatched - q.Arrival
		if rec.Failed {
			r.failedRq++
		}
		t.col.Add(rec)
	}
}

// gauges is the sampled-series catalogue for single-workload runs. Device
// and lane gauges describe the primary (zero for clone/hedge runs). Every
// reader is side-effect-free so sampling never changes the run's trajectory
// (device.SampleStats reads without perturbing).
func (r *runner) gauges() []telemetry.Gauge {
	t := r.tenants[0]
	devGauge := func(read func(device.Stats) float64) func() float64 {
		return func() float64 {
			sn := r.primary()
			if sn == nil {
				return 0
			}
			return read(sn.node.Device.SampleStats())
		}
	}
	laneGauge := func(read func(*lane) float64) func() float64 {
		return func() float64 {
			sn := r.primary()
			if sn == nil {
				return 0
			}
			return read(&sn.lanes[0])
		}
	}
	return []telemetry.Gauge{
		{Name: "pending_requests", Read: func() float64 { return float64(t.bat.Pending()) }},
		{Name: "predicted_rps", Read: func() float64 { return t.predictAt(r.eng.Now(), r.cfg.Horizon) }},
		{Name: "observed_rps", Read: func() float64 { return t.observedRPS(r.eng.Now()) }},
		{Name: "active_jobs", Read: devGauge(func(s device.Stats) float64 { return float64(s.ActiveJobs) })},
		{Name: "lane_queued", Read: devGauge(func(s device.Stats) float64 { return float64(s.LaneQueued) })},
		{Name: "lane_outstanding", Read: laneGauge(func(ln *lane) float64 { return float64(ln.queuedOutstanding) })},
		{Name: "lane_cap", Read: func() float64 { return laneCap }},
		{Name: "lane_backlog_s", Read: devGauge(func(s device.Stats) float64 { return s.LaneBacklogSolo.Seconds() })},
		{Name: "backlog_s", Read: devGauge(func(s device.Stats) float64 { return s.BacklogSolo.Seconds() })},
		{Name: "fbr_demand", Read: devGauge(func(s device.Stats) float64 { return s.ActiveDemand })},
		{Name: "containers_idle", Read: laneGauge(func(ln *lane) float64 { return float64(ln.pool.Idle()) })},
		{Name: "containers_busy", Read: laneGauge(func(ln *lane) float64 { return float64(ln.pool.Busy()) })},
		{Name: "containers_total", Read: laneGauge(func(ln *lane) float64 { return float64(ln.pool.Total()) })},
		{Name: "cost_usd", Read: func() float64 { return r.clu.TotalCost() }},
		{Name: "nodes", Read: func() float64 { return float64(len(r.clu.ActiveNodes())) }},
	}
}

// residenceOf estimates how long one batch holds a container: the solo
// execution latency with a 2x margin for interference.
func residenceOf(e *profile.Entry) time.Duration { return 2 * e.SoloBatch }

// scheduleArrivals feeds t's arrivals from its stream one event at a time:
// one pending arrival is held while the engine advances to it, so memory is
// constant regardless of trace size (with a CurveStream, the trace never
// materializes at all).
func (r *runner) scheduleArrivals(t *tenant) {
	pending, ok := t.arr.Next()
	if !ok {
		return
	}
	var fire func()
	fire = func() {
		now := r.eng.Now()
		for pending <= now {
			req := t.bat.Add(pending)
			r.arrived++
			if r.tel != nil {
				e := telemetry.Ev(req.Arrival, telemetry.Arrived)
				e.Req = int64(req.ID)
				e.Tenant = t.idx
				r.tel.Event(e)
				e.Kind = telemetry.Batched
				r.tel.Event(e)
			}
			t.onArrive(now)
			t.observeArrival(now)
			if pending, ok = t.arr.Next(); !ok {
				return
			}
		}
		r.eng.ScheduleAt(pending, fire)
	}
	r.eng.ScheduleAt(pending, fire)
}

func (t *tenant) observeArrival(now time.Duration) {
	t.rollWindow(now)
	t.obsCount++
}

func (t *tenant) observedRPS(now time.Duration) float64 {
	// Roll the window forward even without arrivals so silence decays.
	t.rollWindow(now)
	return t.obsRate
}

func (t *tenant) rollWindow(now time.Duration) {
	for now >= t.obsWindowStart+t.obsWindow {
		t.obsRate = float64(t.obsCount) / t.obsWindow.Seconds()
		t.obsCount = 0
		t.obsWindowStart += t.obsWindow
	}
}

// stateOf builds tenant t's policy state at the dispatch horizon against a
// specific node's device (the primary's is the common case).
func (r *runner) stateOf(t *tenant, sn *servingNode) *State {
	now := r.eng.Now()
	s := r.stateWithRates(t, t.predictAt(now, r.cfg.Horizon), t.observedRPS(now))
	if sn != r.primary() {
		s.fillNode(sn, t.idx)
	}
	return s
}

func (r *runner) stateWithRates(t *tenant, predicted, observed float64) *State {
	s := &r.stScratch
	*s = State{
		Now:          r.eng.Now(),
		Model:        t.model,
		SLO:          r.cfg.SLO,
		PredictedRPS: predicted,
		ObservedRPS:  observed,
		Pending:      t.bat.Pending(),
		Window:       r.cfg.DispatchWindow,
		rows:         t.rows,
		poolScratch:  s.poolScratch,
		candScratch:  s.candScratch,
	}
	if sn := r.primary(); sn != nil {
		s.HasCurrent = true
		s.fillNode(sn, t.idx)
	}
	return s
}

// fillNode points s at node sn: its type, tenant's profiling row for it and,
// while its device is up, the device's load.
func (s *State) fillNode(sn *servingNode, tenant int) {
	s.Current = sn.node.Spec
	s.Entry = sn.lanes[tenant].entry
	s.ActiveDemand, s.ActiveCompute, s.ActiveJobs = 0, 0, 0
	s.Backlog, s.LaneBacklog = 0, 0
	if dev := sn.node.Device; !dev.Failed() {
		s.ActiveDemand = dev.ActiveDemand()
		s.ActiveCompute = dev.ActiveCompute()
		s.ActiveJobs = dev.ActiveCount()
		s.Backlog = dev.BacklogSolo()
		s.LaneBacklog = dev.LaneBacklogSolo()
	}
}

// --- results -------------------------------------------------------------------

func (r *runner) results() Result {
	for _, s := range r.slots {
		if s.sn != nil {
			r.accumulateNode(s.sn)
		}
	}
	col := r.tenants[0].col
	cpuCost, gpuCost := r.clu.CostByKind()
	res := Result{
		Scheme:           r.cfg.Scheme.Name(),
		Model:            r.tenants[0].model.Name,
		Requests:         col.Count(),
		SLOCompliance:    col.SLOCompliance(),
		P50:              col.Percentile(50),
		P99:              col.Percentile(99),
		MeanLatency:      col.Mean(),
		Cost:             r.clu.TotalCost(),
		CPUCost:          cpuCost,
		GPUCost:          gpuCost,
		EnergyWh:         r.clu.EnergyWh(),
		AvgPowerW:        r.clu.AvgPowerW(),
		UtilCPU:          r.clu.Utilization(hardware.CPU),
		UtilGPU:          r.clu.Utilization(hardware.GPU),
		Boots:            r.boots,
		SyncColdStarts:   r.syncColds,
		Switches:         r.switches,
		FailedRequests:   r.failedRq,
		FailuresInjected: r.failures,
		HeldBySpec:       r.clu.HeldBySpec(),
		SwitchHistory:    r.history,
	}
	if tee, ok := col.(*metrics.Tee); ok {
		// A teed run's own aggregator is the primary; the mirror belongs to
		// whoever attached it (the live plane's shared Online).
		col = tee.Primary
	}
	switch col := col.(type) {
	case *metrics.Collector:
		res.Collector = col
	case *metrics.Online:
		res.Online = col
	}
	return res
}
