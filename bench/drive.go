package main

// drive.go is the benchmark's only door into the simulator: every call into
// repro/internal goes through this file. Arrivals enter the runtime only as
// trace.Stream values and grids run only through the experiments entry
// points, so a refactor behind those seams (one serving runtime, one run
// path) leaves the rest of the benchmark untouched.

import (
	"fmt"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hardware"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// sizes fixes every workload's input. The full sizes hold one repetition
// near a host second on a 2-core VM, so a 20 s run fits several
// GOMAXPROCS=1/2 pairs; the quick sizes exist for the smoke test.
//
// The grids run at the 30 s trace floor (Scale 0.02) with five repetitions,
// the paper's count, rather than one longer repetition: one Azure trace
// holds a single random surge, so a one-repetition grid's request count,
// cost and tail move by 15-35 % from seed to seed, while five repetitions
// hold them within a few percent.
type sizes struct {
	gridScale                     float64
	gridReps                      int
	azureDur, shardDur, ladderDur time.Duration
}

var (
	fullSizes = sizes{
		gridScale: 0.02, gridReps: 5,
		azureDur: 5 * time.Hour, shardDur: 80 * time.Minute, ladderDur: 3 * time.Hour,
	}
	quickSizes = sizes{
		gridScale: 0.02, gridReps: 1,
		azureDur: 10 * time.Minute, shardDur: 5 * time.Minute, ladderDur: 5 * time.Minute,
	}
)

const (
	azurePeakRPS = 450
	shardPeakRPS = 900
	shardLanes   = 4
	// curveSeed fixes the Azure curves' shape (surge count, heights and
	// placement); the benchmark seed drives only the Poisson realization of
	// arrivals on it, so seeds give statistically equivalent inputs.
	curveSeed = 1
)

// workload is one fixed input replayed as fast as the host allows. run
// executes it once and returns a function that summarizes the outputs; the
// caller measures run alone, so summarizing (digests, merged percentiles)
// costs the measurement nothing. With direct set, grids call the
// experiments entry points with no hooks at all, giving the reference
// tables the hooked runs must reproduce byte for byte. A non-nil probes
// instruments the run for the traced pass. Why each workload is in the set
// is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(sz sizes, seed uint64, direct bool, ps *probes) func() summary
}

// summary is one repetition's outputs, reduced to plain values.
type summary struct {
	requests   int
	setup      time.Duration
	digest     uint64          // Result or table digest: identical on every repetition
	spanDigest uint64          // CRC of the span bytes (sharded-spans only)
	compliance float64         // request-weighted, as a fraction
	p99s       []time.Duration // one per simulation
	cost       float64         // dollars, summed over simulations
	failed     int             // simulated requests lost to failures
}

var workloads = []workload{
	{"paper-grid", runPaperGrid},
	{"azure-stream", runAzureStream},
	{"sharded-spans", runShardedSpans},
	{"spot-redundancy", runSpotRedundancy},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- workloads -----------------------------------------------------------------

func gridOptions(sz sizes, seed uint64, direct bool, g *gridRec) experiments.Options {
	o := experiments.Options{Seed: seed, Reps: sz.gridReps, Scale: sz.gridScale, Parallelism: 1}
	if !direct {
		o.Run, o.RunMulti = g.run, g.runMulti
	}
	return o
}

func runPaperGrid(sz sizes, seed uint64, direct bool, ps *probes) func() summary {
	g := &gridRec{ps: ps}
	o := gridOptions(sz, seed, direct, g)
	tables := []*experiments.Table{experiments.Fig3(o), experiments.MultiTenant(o)}
	return func() summary { return g.summarize(tables) }
}

func runSpotRedundancy(sz sizes, seed uint64, direct bool, ps *probes) func() summary {
	g := &gridRec{ps: ps}
	tables := []*experiments.Table{experiments.CloningFrontier(gridOptions(sz, seed, direct, g))}
	return func() summary { return g.summarize(tables) }
}

func runAzureStream(sz sizes, seed uint64, _ bool, ps *probes) func() summary {
	t0 := time.Now()
	cfg := azureConfig(seed, sz.azureDur)
	p := ps.attach(&cfg)
	ru := core.Start(cfg)
	setup := time.Since(t0)
	res := ru.Finish()
	p.finish(&res, time.Since(t0))
	return func() summary {
		var s summary
		s.addResult(res)
		s.setup = setup
		s.digest = resultDigest(fnv.New64a(), res)
		return s
	}
}

// azureConfig is one Paldia ResNet 50 lane streaming the Azure curve.
func azureConfig(seed uint64, dur time.Duration) core.Config {
	c := trace.AzureCurve(sim.NewRNG(curveSeed), azurePeakRPS, dur)
	return core.Config{
		Model:   model.MustByName("ResNet 50"),
		Stream:  c.Stream(sim.NewRNG(seed)),
		Scheme:  core.NewPaldia(),
		Seed:    seed,
		Metrics: core.MetricsOnline,
	}
}

func runShardedSpans(sz sizes, seed uint64, _ bool, ps *probes) func() summary {
	t0 := time.Now()
	rng := sim.NewRNG(seed)
	c := trace.AzureCurve(sim.NewRNG(curveSeed), shardPeakRPS, sz.shardDur)
	spans := &crcWriter{}
	mw := telemetry.NewMergeWriter(spans, nil, shardLanes)
	cfgs := make([]core.Config, shardLanes)
	lanes := make([]*probe, shardLanes)
	for i, lane := range c.Partition(shardLanes) {
		cfgs[i] = core.Config{
			Model:     model.MustByName("ResNet 50"),
			Stream:    lane.Stream(rng),
			Scheme:    core.NewPaldia(),
			Seed:      seed,
			Metrics:   core.MetricsOnline,
			Telemetry: mw.Lane(i),
		}
		lanes[i] = ps.attach(&cfgs[i])
	}
	opt := shard.Options{Shards: runtime.GOMAXPROCS(0), Merge: mw}
	if ps != nil {
		opt.OnBarrier = func(time.Duration) {
			ps.epochs++
			ps.epochWall = time.Since(t0)
		}
	}
	// shard.Run starts the lanes itself, so set-up here is input generation
	// and config build; the lanes' core.Start is part of the run.
	setup := time.Since(t0)
	results := shard.Run(cfgs, opt)
	err := mw.Close()
	for i, p := range lanes {
		p.finish(&results[i], 0)
	}
	if ps != nil {
		ps.epochWall -= setup
	}
	return func() summary {
		var s summary
		s.addResult(shard.Aggregate(results, core.DefaultSLO))
		s.setup = setup
		h := fnv.New64a()
		for _, r := range results {
			resultDigest(h, r)
		}
		if err != nil {
			fmt.Fprintf(h, "merge error %v", err)
		}
		s.digest = h.Sum64()
		s.spanDigest = uint64(spans.crc)
		return s
	}
}

// crcWriter discards what it is given but checksums it, so span output can
// be compared across GOMAXPROCS without keeping it.
type crcWriter struct{ crc uint32 }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (w *crcWriter) Write(b []byte) (int, error) {
	w.crc = crc32.Update(w.crc, castagnoli, b)
	return len(b), nil
}

// gridRec is the experiments.Options Run/RunMulti hook: it times core.Start
// (the grid's set-up), keeps each run's scalar outputs for the simulated
// metrics and, in the traced pass, instruments every run.
type gridRec struct {
	ps      *probes
	setup   time.Duration
	singles []core.Result
	multis  []core.MultiResult
}

func (g *gridRec) run(cfg core.Config) core.Result {
	p := g.ps.attach(&cfg)
	t0 := time.Now()
	ru := core.Start(cfg)
	g.setup += time.Since(t0)
	res := ru.Finish()
	p.finish(&res, time.Since(t0))
	keep := res
	keep.Collector, keep.Online = nil, nil
	g.singles = append(g.singles, keep)
	return res
}

func (g *gridRec) runMulti(cfg core.MultiConfig) core.MultiResult {
	g.ps.attachMulti(&cfg)
	res := core.RunMulti(cfg)
	g.multis = append(g.multis, res)
	return res
}

func (g *gridRec) summarize(tables []*experiments.Table) summary {
	s := summary{setup: g.setup}
	for _, r := range g.singles {
		s.addResult(r)
	}
	for _, m := range g.multis {
		// A multi-tenant run's P99 is over the union of its tenants.
		col := metrics.NewCollector(core.DefaultSLO)
		for _, c := range m.PerWorkload {
			c.Each(col.Add)
		}
		col.Each(func(r metrics.Record) {
			if r.Failed {
				s.failed++
			}
		})
		s.addRun(col.Count(), m.SLOCompliance, col.Percentile(99), m.Cost)
	}
	h := fnv.New64a()
	for _, t := range tables {
		io.WriteString(h, t.String())
	}
	s.digest = h.Sum64()
	return s
}

// addRun folds one simulation in.
func (s *summary) addRun(requests int, compliance float64, p99 time.Duration, cost float64) {
	s.requests += requests
	s.compliance = (s.compliance*float64(s.requests-requests) + compliance*float64(requests)) /
		math.Max(1, float64(s.requests))
	s.p99s = append(s.p99s, p99)
	s.cost += cost
}

// p99Median is the median of the per-simulation P99s, in milliseconds: a
// grid's mean P99 follows its one or two worst cells, so it swings with the
// seed far more than the median does.
func (s summary) p99Median() float64 {
	xs := make([]float64, len(s.p99s))
	for i, p := range s.p99s {
		xs[i] = float64(p) / 1e6
	}
	return median(xs)
}

func (s *summary) addResult(r core.Result) {
	s.addRun(r.Requests, r.SLOCompliance, r.P99, r.Cost)
	s.failed += r.FailedRequests
}

// resultDigest folds every scalar of a Result (not the per-request
// aggregators) into h; fmt prints maps in key order, so equal Results give
// equal digests.
func resultDigest(h hash.Hash64, r core.Result) uint64 {
	r.Collector, r.Online = nil, nil
	fmt.Fprintf(h, "%+v\n", r)
	return h.Sum64()
}

// --- traced-pass instrumentation -------------------------------------------------

// probes collects one probe per instrumented simulation (one per lane in
// sharded runs, so lane goroutines never share one) plus the sharded
// barrier accounting made on the coordinator.
type probes struct {
	list      []*probe
	epochs    int64
	epochWall time.Duration
}

// probe is one simulation's seam timers and telemetry tallies. Every field
// is written by the goroutine driving that simulation only.
type probe struct {
	next, add, sel, split, sink seamTimer
	arrivals                    int64 // Next calls that yielded an arrival
	instants                    int64
	lastInstant                 time.Duration
	wall                        time.Duration // Start..Finish, single-run grids and streams
	requests                    int

	jobs, batchSum, queuedJobs          int64
	coldBoots, prewarmed, reaped        int64
	nodesRequested, hwSwitches, revoked int64
	cloned, cancelled                   int64

	agg   metrics.Aggregator // the aggregator the wrapper feeds
	check *invariant.Checker
}

// attach instruments a single-run config: the arrival stream, the policy's
// two decisions, the aggregator, the telemetry sinks (plus a counting sink)
// and the clock-advance seam are wrapped, and a fresh invariant checker is
// attached. A nil probes leaves cfg untouched.
func (ps *probes) attach(cfg *core.Config) *probe {
	if ps == nil {
		return nil
	}
	p := &probe{check: invariant.New()}
	ps.list = append(ps.list, p)
	if cfg.Stream == nil {
		cfg.Stream = cfg.Trace.Stream()
	}
	cfg.Stream = &timedStream{Stream: cfg.Stream, p: p}
	cfg.Scheme.Policy = &timedPolicy{Policy: cfg.Scheme.Policy, p: p}
	slo := cfg.SLO
	if slo == 0 {
		slo = core.DefaultSLO
	}
	switch {
	case cfg.Aggregator != nil:
		p.agg = cfg.Aggregator
	case cfg.Metrics == core.MetricsOnline:
		p.agg = metrics.NewOnline(slo, cfg.Stream.Duration(), metrics.DefaultGoodputWindow)
	default:
		p.agg = metrics.NewCollector(slo)
	}
	cfg.Aggregator = &timedAgg{Aggregator: p.agg, p: p}
	cfg.Telemetry = &timedSink{Sink: telemetry.Combine(cfg.Telemetry, p), p: p}
	cfg.Pacer = p.pace
	cfg.Invariants = p.check
	return p
}

// attachMulti instruments a multi-tenant config: streams, policy and sinks
// (MultiConfig has no aggregator or clock seam).
func (ps *probes) attachMulti(cfg *core.MultiConfig) {
	if ps == nil {
		return
	}
	p := &probe{check: invariant.New()}
	ps.list = append(ps.list, p)
	ws := make([]core.Workload, len(cfg.Workloads))
	copy(ws, cfg.Workloads)
	for i := range ws {
		if ws[i].Stream == nil {
			ws[i].Stream = ws[i].Trace.Stream()
		}
		ws[i].Stream = &timedStream{Stream: ws[i].Stream, p: p}
	}
	cfg.Workloads = ws
	cfg.Scheme.Policy = &timedPolicy{Policy: cfg.Scheme.Policy, p: p}
	cfg.Telemetry = &timedSink{Sink: telemetry.Combine(cfg.Telemetry, p), p: p}
	cfg.Invariants = p.check
}

// finish restores the Result's aggregator field, which the run cannot set
// through the wrapper, and records the run's wall time.
func (p *probe) finish(res *core.Result, wall time.Duration) {
	if p == nil {
		return
	}
	switch a := p.agg.(type) {
	case *metrics.Collector:
		res.Collector = a
	case *metrics.Online:
		res.Online = a
	}
	p.wall = wall
	p.requests = res.Requests
}

func (p *probe) pace(vt time.Duration) {
	p.instants++
	p.lastInstant = vt
}

// Event is the counting sink: exact work counts per layer.
func (p *probe) Event(e telemetry.Event) {
	switch e.Kind {
	case telemetry.Queued:
		p.jobs++
		p.batchSum += int64(e.N)
		if e.Detail == "queued" {
			p.queuedJobs++
		}
	case telemetry.ContainerBoot:
		p.coldBoots++
	case telemetry.ContainerPrewarm:
		p.prewarmed += int64(e.N)
	case telemetry.ContainerReaped:
		p.reaped += int64(e.N)
	case telemetry.NodeRequested:
		p.nodesRequested++
	case telemetry.HWSwitch:
		p.hwSwitches++
	case telemetry.NodeRevoked:
		p.revoked++
	case telemetry.Cloned:
		p.cloned++
	case telemetry.CloneCancelled:
		p.cancelled++
	}
}

// seamTimer counts one seam's calls and times a sample of them: one call in
// sampleEvery, picked by a xorshift stream so that no periodic call pattern
// (a request's fixed sequence of lifecycle events, say) aliases with the
// sampling. Timing every call would spend clock reads, tens of nanoseconds
// each on some VMs, on every call and bury the layers being measured. A
// sampled call reads the clock twice before the call and once after and
// keeps (after - second) - (second - first): each difference holds one
// read's latency (all three are the same monotonic read, see nanos), so the
// result is the call's own time, unbiased even for calls far cheaper than a
// clock read.
type seamTimer struct {
	calls int64 // every call
	timed int64 // the sampled calls
	ns    int64 // the sampled calls' own time
	rng   uint64
}

const sampleEvery = 16

func (s *seamTimer) start() (int64, bool) {
	s.calls++
	if s.rng == 0 {
		s.rng = 0x9e3779b97f4a7c15
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	if s.rng%sampleEvery != 0 {
		return 0, false
	}
	t0 := nanos()
	t1 := nanos()
	s.ns -= t1 - t0
	return t1, true
}

func (s *seamTimer) stop(t1 int64, timed bool) {
	if timed {
		s.ns += nanos() - t1
		s.timed++
	}
}

// clockBase makes nanos a monotonic-clock read alone: time.Since on a time
// that carries a monotonic reading skips the wall clock that time.Now also
// reads.
var clockBase = time.Now()

func nanos() int64 { return int64(time.Since(clockBase)) }

// estimate scales the sampled time up to every call, in nanoseconds.
func (s seamTimer) estimate() float64 {
	if s.timed == 0 {
		return 0
	}
	return float64(s.ns) * float64(s.calls) / float64(s.timed)
}

func (s *seamTimer) add(o seamTimer) {
	s.calls += o.calls
	s.timed += o.timed
	s.ns += o.ns
}

// timerCost is what the seam timers add to one wrapped call, on average
// over sampled and unsampled calls, in nanoseconds.
func timerCost() float64 {
	const n = 1 << 20
	var s seamTimer
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t, timed := s.start()
		s.stop(t, timed)
	}
	return float64(time.Since(t0)) / n
}

type timedStream struct {
	trace.Stream
	p *probe
}

func (s *timedStream) Next() (time.Duration, bool) {
	t0, timed := s.p.next.start()
	a, ok := s.Stream.Next()
	s.p.next.stop(t0, timed)
	if ok {
		s.p.arrivals++
	}
	return a, ok
}

type timedPolicy struct {
	core.Policy
	p *probe
}

func (t *timedPolicy) DesiredHardware(s *core.State) hardware.Spec {
	t0, timed := t.p.sel.start()
	h := t.Policy.DesiredHardware(s)
	t.p.sel.stop(t0, timed)
	return h
}

func (t *timedPolicy) SplitY(s *core.State, n int) int {
	t0, timed := t.p.split.start()
	y := t.Policy.SplitY(s, n)
	t.p.split.stop(t0, timed)
	return y
}

type timedAgg struct {
	metrics.Aggregator
	p *probe
}

func (a *timedAgg) Add(r metrics.Record) {
	t0, timed := a.p.add.start()
	a.Aggregator.Add(r)
	a.p.add.stop(t0, timed)
}

type timedSink struct {
	telemetry.Sink
	p *probe
}

func (s *timedSink) Event(e telemetry.Event) {
	t0, timed := s.p.sink.start()
	s.Sink.Event(e)
	s.p.sink.stop(t0, timed)
}

// layerTotals is the traced pass's probes summed into plain numbers.
type layerTotals struct {
	probe
	pacedRequests int64 // requests of runs with the aggregator and clock seams
	epochs        int64
	epochWall     time.Duration
	checkErr      error
}

func (ps *probes) totals() layerTotals {
	var t layerTotals
	la := shard.DefaultLookahead()
	for _, p := range ps.list {
		pt := layerTotals{probe: *p}
		if p.agg != nil {
			pt.pacedRequests = int64(p.requests)
		}
		if ps.epochs == 0 && p.wall > 0 {
			// A single-lane run has no barrier; count the lookahead-long
			// stretches of virtual time it simulated instead.
			pt.epochs = int64((p.lastInstant + la - 1) / la)
			pt.epochWall = p.wall
		}
		t.merge(pt)
		if t.checkErr == nil {
			t.checkErr = p.check.Err()
		}
	}
	if ps.epochs > 0 {
		t.epochs, t.epochWall = ps.epochs, ps.epochWall
	}
	return t
}

// merge sums another probe's or repetition's counters into t.
func (t *layerTotals) merge(o layerTotals) {
	t.next.add(o.next)
	t.add.add(o.add)
	t.sel.add(o.sel)
	t.split.add(o.split)
	t.sink.add(o.sink)
	t.arrivals += o.arrivals
	t.instants += o.instants
	t.jobs += o.jobs
	t.batchSum += o.batchSum
	t.queuedJobs += o.queuedJobs
	t.coldBoots += o.coldBoots
	t.prewarmed += o.prewarmed
	t.reaped += o.reaped
	t.nodesRequested += o.nodesRequested
	t.hwSwitches += o.hwSwitches
	t.revoked += o.revoked
	t.cloned += o.cloned
	t.cancelled += o.cancelled
	t.pacedRequests += o.pacedRequests
	t.epochs += o.epochs
	t.epochWall += o.epochWall
}

// --- ladder ---------------------------------------------------------------------

// ladderRungs switches one layer on at a time over the base rung (online
// metrics, no sinks): the exact Collector, span export, span plus event
// export, the invariant checker and the live observability plane.
var ladderRungs = []string{"base", "exact_metrics", "spans", "spans_events", "invariants", "obs_plane"}

// runLadderRung runs one rung on the ladder's azure-stream input and returns
// the request count and a digest of the run's simulated outputs, which every
// rung must share.
func runLadderRung(rung string, sz sizes, seed uint64) (int, uint64, error) {
	cfg := azureConfig(seed, sz.ladderDur)
	var closeFn func() error
	switch rung {
	case "base":
	case "exact_metrics":
		cfg.Metrics = core.MetricsExact
	case "spans", "spans_events":
		var events io.Writer
		if rung == "spans_events" {
			events = io.Discard
		}
		w := telemetry.NewStreamWriter(io.Discard, events)
		cfg.Telemetry, closeFn = w, w.Close
	case "invariants":
		c := invariant.New()
		cfg.Invariants, closeFn = c, c.Err
	case "obs_plane":
		online := metrics.NewOnline(core.DefaultSLO, cfg.Stream.Duration(), metrics.DefaultGoodputWindow)
		plane := obs.NewPlane(obs.Options{Online: online})
		cfg.Telemetry, cfg.Pacer, cfg.Aggregator = plane.Sink(), plane.Pacer(), online
		closeFn = func() error { plane.MarkDone(); return nil }
	default:
		return 0, 0, fmt.Errorf("unknown ladder rung %q", rung)
	}
	res := core.Run(cfg)
	var err error
	if closeFn != nil {
		err = closeFn()
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %v %v %d %d", res.Requests, res.SLOCompliance, res.Cost, res.Switches, res.Boots)
	return res.Requests, h.Sum64(), err
}
