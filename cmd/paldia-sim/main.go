// Command paldia-sim runs one serving simulation — a scheme serving a model
// under a trace on the simulated heterogeneous cluster — and prints the full
// metric panel (SLO compliance, latency percentiles, tail breakdown, cost,
// power, utilization, cold starts).
//
// Examples:
//
//	paldia-sim -model "ResNet 50" -scheme paldia
//	paldia-sim -model "VGG 19" -scheme molecule-cost -trace azure -duration 5m
//	paldia-sim -model BERT -scheme all -trace azure -peak 8 -j 0
//	paldia-sim -model "ResNet 50" -trace wikipedia -forecaster seasonal
//
// Every run is a set of lanes — one per scheme, or one per tenant with
// -tenants — executed together under the sharded virtual-time barrier; -j
// picks how many lanes run concurrently and never changes a byte of output.
//
// Streaming mode (-stream) realizes arrivals lazily from the rate curve and
// aggregates metrics in constant memory, so multi-million-request runs never
// materialize a trace or a per-request record slice:
//
//	paldia-sim -stream -requests 1000000 -max-heap-mib 256
//
// Live mode (-serve) replays the run against the wall clock and serves the
// observability plane while it happens — an embedded dashboard at /, a
// Prometheus text scrape at /metrics, a JSON snapshot at /state and an SSE
// telemetry feed at /events; -speedup paces virtual against wall time,
// -linger keeps serving after the replay, and -progress prints one-line
// reports from the same thread-safe snapshots. -fail-every/-fail-for inject
// periodic node outages and -objective tightens the burn-rate error budget:
//
//	paldia-sim -serve :8080 -speedup 60 -progress 2s
//	paldia-sim -serve :8080 -speedup 60 -fail-every 40s -fail-for 10s -objective 0.999
//
// Telemetry (single-scheme runs): -trace-out writes a Chrome trace_event
// timeline (chrome://tracing, Perfetto) plus a derived series CSV;
// -spans-out / -events-out / -series-out / -timeline-svg export the other
// views; -sample sets the gauge sampling cadence.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options carries every flag value.
type options struct {
	model, scheme, trace, forecaster, csv            string
	cpuprofile, memprofile, serve                    string
	traceOut, spansOut, eventsOut, seriesOut, svgOut string
	peak, speedup, objective                         float64
	duration, slo, failEvery, failFor                time.Duration
	linger, progressIv, sample                       time.Duration
	seed                                             uint64
	jobs, requests, maxHeapMiB, tenants              int
	list, timeline, stream, check                    bool
	red                                              redFlags
}

// redFlags carries the redundant-dispatch and spot-capacity flags.
type redFlags struct {
	cloneK       int
	cloneSync    bool
	hedgePct     float64
	spotDiscount float64
	spotFraction float64
	revokeEvery  time.Duration
	revokeNotice time.Duration
}

// exitError is an error with a non-default process exit status.
type exitError struct {
	code int
	err  error
}

func (e exitError) Error() string { return e.err.Error() }

// run is the whole command: it parses argv, runs the simulation and returns
// the process exit status — 0 on success, 1 on a usage or I/O error, 2 on a
// flag-parse error or a -max-heap-mib breach, 3 on a -check violation.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paldia-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.model, "model", "ResNet 50", "workload model name (see -list)")
	fs.StringVar(&o.scheme, "scheme", "paldia", "scheme: paldia, oracle, infless-cost, infless-perf, molecule-cost, molecule-perf, or all")
	fs.StringVar(&o.trace, "trace", "azure", "trace: azure, wikipedia, twitter, poisson, stable, or file:PATH (paldia-trace -dump format; not with -stream)")
	fs.Float64Var(&o.peak, "peak", 0, "peak rps (0 = paper default for the model)")
	fs.DurationVar(&o.duration, "duration", 0, "trace duration (0 = trace default)")
	fs.Uint64Var(&o.seed, "seed", 42, "random seed")
	fs.DurationVar(&o.slo, "slo", core.DefaultSLO, "per-request SLO")
	fs.StringVar(&o.forecaster, "forecaster", "", "rate forecaster: "+strings.Join(predict.Names(), ", ")+" (empty = ewma; ignored by clairvoyant schemes)")
	fs.BoolVar(&o.list, "list", false, "list models and exit")
	fs.BoolVar(&o.timeline, "timeline", false, "print per-30s violation counts")
	fs.StringVar(&o.csv, "csv", "", "write per-request records to this CSV file (single-scheme runs)")
	fs.IntVar(&o.jobs, "j", 1, "lanes (schemes or tenants) executed concurrently (0 = GOMAXPROCS, the CPUs the process may use); changes wall-clock only, never output")

	fs.BoolVar(&o.stream, "stream", false, "realize arrivals lazily from the rate curve with constant-memory metrics (no per-request records)")
	fs.IntVar(&o.requests, "requests", 0, "size the trace so ~N requests arrive in expectation (overrides -duration)")
	fs.IntVar(&o.maxHeapMiB, "max-heap-mib", 0, "fail if sampled heap (runtime HeapAlloc) ever exceeds this many MiB (0 = no limit)")

	fs.IntVar(&o.tenants, "tenants", 1, "partition the workload into this many independent tenant lanes (implies -stream when >1)")
	fs.BoolVar(&o.check, "check", false, "run the runtime invariant checker alongside the simulation; fail on any violation")

	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile to this file at exit")

	fs.DurationVar(&o.failEvery, "fail-every", 0, "inject a node failure on this virtual-time period (0 = none)")
	fs.DurationVar(&o.failFor, "fail-for", 10*time.Second, "how long each injected node failure lasts")

	fs.IntVar(&o.red.cloneK, "clone-k", 0, "dispatch k racing copies of every batch on k distinct GPU pools, cancel-on-first-complete (0 = off; overrides -scheme)")
	fs.BoolVar(&o.red.cloneSync, "clone-sync", false, "with -clone-k: synchronized-service cloning — complete only when every copy finishes")
	fs.Float64Var(&o.red.hedgePct, "hedge-pct", 0, "launch a backup copy once a request's age crosses this online completion-latency percentile (0 = off; overrides -scheme)")
	fs.Float64Var(&o.red.spotDiscount, "spot-discount", 0, "bill spot nodes at (1-discount) of the catalog rate (0 = all on-demand)")
	fs.Float64Var(&o.red.spotFraction, "spot-fraction", 0, "fraction of capacity on revocable spot nodes (plain schemes: any positive value makes the serving node spot)")
	fs.DurationVar(&o.red.revokeEvery, "revoke-every", 0, "inject a spot revocation on this virtual-time period (0 = none; needs -spot-discount and -spot-fraction)")
	fs.DurationVar(&o.red.revokeNotice, "revoke-notice", 2*time.Second, "drain notice between a revocation and its kill")

	fs.StringVar(&o.serve, "serve", "", "serve the live observability plane on this address (e.g. :8080) while replaying; implies -stream")
	fs.Float64Var(&o.speedup, "speedup", 0, "with -serve: virtual seconds replayed per wall second (0 = as fast as possible)")
	fs.Float64Var(&o.objective, "objective", 0.99, "with -serve/-progress: SLO-compliance objective whose complement is the burn-rate error budget")
	fs.DurationVar(&o.linger, "linger", 0, "with -serve: keep serving this long after the replay finishes")
	fs.DurationVar(&o.progressIv, "progress", 0, "print a one-line progress report on this wall-clock cadence; implies -stream")

	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace_event JSON timeline (also derives a series CSV next to it)")
	fs.StringVar(&o.spansOut, "spans-out", "", "write per-request spans as JSONL")
	fs.StringVar(&o.eventsOut, "events-out", "", "write every telemetry event as JSONL")
	fs.StringVar(&o.seriesOut, "series-out", "", "write sampled time series as CSV")
	fs.StringVar(&o.svgOut, "timeline-svg", "", "render the sampled series as an SVG chart")
	fs.DurationVar(&o.sample, "sample", time.Second, "telemetry gauge sampling cadence (virtual time)")

	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if o.list {
		for _, m := range model.Catalog() {
			fmt.Fprintf(stdout, "%-20s %-9s maxBatch=%-4d peak=%.0frps\n",
				m.Name, m.Domain, m.MaxBatch, m.DefaultPeakRPS())
		}
		return 0
	}
	err := o.execute(stdout, stderr)
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, err)
	var ee exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	return 1
}

// live reports whether the observability plane or the progress line is on;
// both ride the streaming path, where the shared Online aggregator lives.
func (o *options) live() bool { return o.serve != "" || o.progressIv > 0 }

// telemetryOn reports whether any telemetry export is requested.
func (o *options) telemetryOn() bool {
	return o.traceOut != "" || o.spansOut != "" || o.eventsOut != "" || o.seriesOut != "" || o.svgOut != ""
}

// resolve turns the flag combination into the model and scheme list,
// rejecting every combination the single execution path cannot honour.
func (o *options) resolve() (model.Spec, []core.Scheme, error) {
	m, ok := model.ByName(o.model)
	if !ok {
		return m, nil, fmt.Errorf("unknown model %q (try -list)", o.model)
	}
	if _, err := predict.NewByName(o.forecaster, time.Second); err != nil {
		return m, nil, err
	}
	if err := o.red.validate(); err != nil {
		return m, nil, err
	}
	if o.tenants < 1 {
		return m, nil, errors.New("-tenants must be at least 1")
	}
	if o.live() || o.tenants > 1 {
		o.stream = true
	}
	if o.stream && (o.csv != "" || o.timeline || o.traceOut != "") {
		return m, nil, errors.New("-stream keeps no per-request records; -csv, -timeline and -trace-out need a materialized run")
	}
	if strings.HasPrefix(o.trace, "file:") && (o.stream || o.requests > 0) {
		return m, nil, errors.New("file: traces are replayed as recorded; drop -stream (implied by -tenants, -serve and -progress) and -requests")
	}
	base, err := pickSchemes(o.scheme)
	if err != nil {
		return m, nil, err
	}
	schemes := o.red.schemes(base)
	if len(schemes) > 1 {
		switch {
		case o.tenants > 1:
			return m, nil, errors.New("-tenants runs a single scheme per grid, not -scheme all")
		case o.telemetryOn():
			return m, nil, errors.New("telemetry flags (-trace-out, -spans-out, ...) require a single scheme, not -scheme all")
		case o.live():
			return m, nil, errors.New("-serve and -progress attach to a single run, not -scheme all")
		case o.csv != "":
			return m, nil, errors.New("-csv writes one scheme's records; it needs a single scheme, not -scheme all")
		}
	}
	if o.stream {
		for _, s := range schemes {
			if s.Clairvoyant {
				return m, nil, fmt.Errorf("scheme %s is clairvoyant and needs a materialized trace; drop -stream (implied by -tenants, -serve and -progress)", s.Name())
			}
		}
	}
	if o.peak == 0 {
		o.peak = m.DefaultPeakRPS()
	}
	return m, schemes, nil
}

// execute resolves the flags and runs the simulation with the heap watcher
// and profiles around it; both are reported on every exit.
func (o *options) execute(stdout, stderr io.Writer) (err error) {
	m, schemes, err := o.resolve()
	if err != nil {
		return err
	}
	heap := watchHeap(o.maxHeapMiB, stderr)
	defer func() {
		if herr := heap.report(stderr); err == nil {
			err = herr
		}
	}()
	stopProfiles, err := startProfiles(o.cpuprofile, o.memprofile, stderr)
	if err != nil {
		return err
	}
	defer stopProfiles()
	return o.simulate(m, schemes, stdout, stderr)
}

// simulate is the one execution path. It builds the arrival input once —
// a realized trace, or a rate curve each lane streams from — turns it into
// one core.Config per lane (one per scheme, or one per tenant partition),
// validates every lane before anything is printed or written, runs every
// lane through shard.Run and prints and writes the outputs.
func (o *options) simulate(m model.Spec, schemes []core.Scheme, stdout, stderr io.Writer) error {
	rng := sim.NewRNG(o.seed)
	tr, c, err := o.arrivals(rng)
	if err != nil {
		return err
	}
	n := len(schemes) * o.tenants
	var parts []*trace.Curve
	if o.stream {
		parts = c.Partition(o.tenants)
	}
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfg := core.Config{
			Model:           m,
			Scheme:          schemes[i/o.tenants],
			SLO:             o.slo,
			Seed:            o.seed,
			Forecaster:      o.forecaster,
			FailureEvery:    o.failEvery,
			FailureDuration: o.failFor,
			SpotDiscount:    o.red.spotDiscount,
			SpotFraction:    o.red.spotFraction,
			RevokeEvery:     o.red.revokeEvery,
			RevokeNotice:    o.red.revokeNotice,
		}
		if o.stream {
			cfg.Stream = parts[i%o.tenants].Stream(rng)
			cfg.Metrics = core.MetricsOnline
		} else {
			cfg.Trace = tr
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		cfgs[i] = cfg
	}

	if o.stream {
		fmt.Fprintf(stdout, "curve %s: ~%.0f requests expected, mean %.1f rps, peak %.0f rps, %v\n",
			c.Name, c.ExpectedRequests(), c.MeanRPS(), c.PeakRPS(), c.Duration())
		if o.tenants > 1 {
			// The lane decomposition is part of the workload, so it prints
			// to stdout; the worker count is an execution detail and goes to
			// stderr.
			fmt.Fprintf(stdout, "grid: %d tenant lanes at 1/%d rate each\n", o.tenants, o.tenants)
		}
		fmt.Fprintln(stdout)
	} else {
		fmt.Fprintf(stdout, "trace %s: %d requests, mean %.1f rps, peak %.0f rps (1s windows)\n\n",
			tr.Name, tr.Count(), tr.MeanRPS(), tr.PeakRPS(time.Second))
	}

	// Materialized runs buffer telemetry in a Recorder (-trace-out needs
	// every span, and the Recorder's arrival-ordered span export is the
	// historical format); streamed runs flush through a MergeWriter as the
	// barrier advances.
	var (
		rec        *telemetry.Recorder
		mw         *telemetry.MergeWriter
		closeFiles func() error
	)
	switch {
	case o.telemetryOn() && o.stream:
		ws, closeAll, err := createAll(o.spansOut, o.eventsOut)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		defer closeAll()
		if ws[0] == nil {
			ws[0] = io.Discard
		}
		mw, closeFiles = telemetry.NewMergeWriter(ws[0], ws[1], n), closeAll
	case o.telemetryOn():
		rec = telemetry.NewRecorder()
	}

	// The live plane attaches through read-only seams — sink, pacer and a
	// shared aggregator every lane mirrors into — so the run's outputs are
	// identical with or without it.
	var plane *obs.Plane
	if o.live() {
		plane = obs.NewPlane(obs.Options{
			SLO: o.slo, Objective: o.objective, Speedup: o.speedup,
			Online: metrics.NewOnline(o.slo, c.Duration(), metrics.DefaultGoodputWindow),
		})
	}
	stopServer, err := serve(o.serve, plane, stderr)
	if err != nil {
		return err
	}

	checks := make([]*invariant.Checker, n)
	for i := range cfgs {
		cfg := &cfgs[i]
		switch {
		case rec != nil:
			cfg.Telemetry = rec
		case mw != nil:
			cfg.Telemetry = mw.Lane(i)
		}
		if plane != nil {
			// Each lane keeps its own Online (the Result's primary) and
			// mirrors every record into the plane's shared aggregator;
			// lane feeds into the hub carry the lane index as Tenant so
			// spans don't collide.
			cfg.Aggregator = metrics.NewTee(
				metrics.NewOnline(o.slo, c.Duration(), metrics.DefaultGoodputWindow), plane.Online())
			cfg.Telemetry = telemetry.Combine(cfg.Telemetry, telemetry.WithTenant(plane.Sink(), i))
			cfg.Pacer = plane.Pacer()
		}
		if cfg.Telemetry != nil {
			cfg.SampleEvery = o.sample
		}
		if o.check {
			checks[i] = invariant.New()
			cfg.Invariants = checks[i]
		}
	}

	workers := o.jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if n > 1 {
		fmt.Fprintf(stderr, "executing %d lanes on %d workers, lookahead %v\n",
			n, workers, shard.DefaultLookahead())
	}
	board := shard.NewVTBoard(n)
	stopProgress := startProgress(o.progressIv, plane, board, stderr)
	results := shard.Run(cfgs, shard.Options{Shards: workers, Merge: mw, Board: board})
	stopProgress()
	if plane != nil {
		plane.MarkDone()
		if o.linger > 0 {
			fmt.Fprintf(stderr, "replay done; serving for another %v\n", o.linger)
			time.Sleep(o.linger)
		}
	}
	stopServer()
	if err := invariantErrors(checks); err != nil {
		return err
	}

	if o.tenants > 1 {
		printResult(stdout, shard.Aggregate(results, o.slo))
		fmt.Fprintln(stdout, "  per-tenant lanes:")
		for i, r := range results {
			fmt.Fprintf(stdout, "    tenant %-3d requests %-8d compliance %6.2f%%  p99 %-10v cost $%.4f\n",
				i, r.Requests, r.SLOCompliance*100, r.P99, r.Cost)
		}
		fmt.Fprintln(stdout)
	} else {
		for _, res := range results {
			printResult(stdout, res)
			if o.timeline {
				printTimeline(stdout, res, tr.Duration)
			}
		}
	}

	if o.csv != "" {
		res := results[0]
		if err := writeFile(stderr, o.csv, fmt.Sprintf("%d records", res.Requests), res.Collector.WriteCSV); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
	}
	switch {
	case rec != nil:
		err = writeRecorded(stderr, rec, o)
	case mw != nil:
		err = finishMerge(stderr, mw, closeFiles, o)
	}
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// arrivals builds the run's input: a file trace (materialized only), or the
// named generator's rate curve — realized into a Trace for a materialized
// run, kept as a curve for lanes to stream from. With -requests the duration
// is sized so ~N requests arrive in expectation.
func (o *options) arrivals(rng *sim.RNG) (*trace.Trace, *trace.Curve, error) {
	if path, ok := strings.CutPrefix(o.trace, "file:"); ok {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: %w", err)
		}
		defer f.Close()
		tr, err := trace.Load(f, path)
		if err != nil {
			return nil, nil, fmt.Errorf("trace: %w", err)
		}
		return tr, nil, nil
	}
	// Twitter's rate knob is its mean, set at the paper's 5x-below-peak.
	rate := o.peak
	if o.trace == "twitter" {
		rate /= 5
	}
	c, err := trace.NamedCurve(rng, o.trace, rate, o.duration)
	if err != nil {
		return nil, nil, err
	}
	// The curve's mean rate is itself a function of duration (surge count and
	// shape are realized per bucket), so sizing for a request count is a fixed
	// point: re-derive the duration from the latest realized mean until it
	// settles. A few rounds land within a couple percent of -requests.
	for i := 0; o.requests > 0 && i < 4; i++ {
		d := trace.DurationForRequests(o.requests, c.MeanRPS())
		if d == c.Duration() {
			break
		}
		if c, err = trace.NamedCurve(rng, o.trace, rate, d); err != nil {
			return nil, nil, err
		}
	}
	if o.stream {
		return nil, c, nil
	}
	return c.Realize(rng), c, nil
}

// serve starts the live plane's HTTP server on addr; the returned function
// shuts it down. An empty addr serves nothing.
func serve(addr string, plane *obs.Plane, stderr io.Writer) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	srv := obs.NewServer(addr, plane)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(stderr, "serve: %v\n", err)
		}
	}()
	fmt.Fprintf(stderr, "live plane on http://%s  (/ dashboard, /metrics, /state, /events)\n", ln.Addr())
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	}, nil
}

func (rf redFlags) validate() error {
	if rf.cloneK != 0 && (rf.cloneK < 2 || rf.cloneK > 3) {
		return fmt.Errorf("-clone-k must be 0, 2 or 3 (got %d)", rf.cloneK)
	}
	if rf.cloneK != 0 && rf.hedgePct != 0 {
		return fmt.Errorf("-clone-k and -hedge-pct are mutually exclusive")
	}
	if rf.hedgePct != 0 && !(rf.hedgePct > 0 && rf.hedgePct <= 100) {
		return fmt.Errorf("-hedge-pct must be in (0,100] (got %v)", rf.hedgePct)
	}
	if rf.revokeEvery > 0 && (rf.spotDiscount <= 0 || rf.spotFraction <= 0) {
		return fmt.Errorf("-revoke-every needs spot nodes: set -spot-discount and -spot-fraction")
	}
	return nil
}

// schemes replaces the -scheme selection with the redundant variant when
// -clone-k or -hedge-pct is set.
func (rf redFlags) schemes(base []core.Scheme) []core.Scheme {
	switch {
	case rf.cloneK != 0:
		return []core.Scheme{core.NewPaldiaCloneK(rf.cloneK, rf.cloneSync)}
	case rf.hedgePct != 0:
		return []core.Scheme{core.NewPaldiaHedged(rf.hedgePct)}
	}
	return base
}

// invariantErrors collects any -check violations into one exit-3 error; nil
// entries (checking disabled) are skipped.
func invariantErrors(checks []*invariant.Checker) error {
	var msgs []string
	for i, chk := range checks {
		if chk == nil {
			continue
		}
		if err := chk.Err(); err != nil {
			msgs = append(msgs, fmt.Sprintf("invariants (run %d):\n%v", i, err))
		}
	}
	if msgs == nil {
		return nil
	}
	return exitError{code: 3, err: errors.New(strings.Join(msgs, "\n"))}
}

// startProfiles starts a CPU profile and arranges for an allocation profile
// at exit; either path may be empty. The returned stop function finishes
// both.
func startProfiles(cpuPath, memPath string, stderr io.Writer) (func(), error) {
	var cpuF *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			} else {
				fmt.Fprintf(stderr, "wrote cpu profile to %s\n", cpuPath)
			}
		}
		if memPath != "" {
			runtime.GC() // flush recent allocations into the profile
			if err := writeFile(stderr, memPath, "allocation profile", func(w io.Writer) error {
				return pprof.Lookup("allocs").WriteTo(w, 0)
			}); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}

// heapWatch samples runtime.MemStats in the background. If HeapAlloc ever
// exceeds the limit the process fails immediately — the scale-smoke CI
// contract — and the observed peak is reported at exit either way.
type heapWatch struct {
	limit uint64
	peak  atomic.Uint64
	stop  chan struct{}
}

// startProgress prints a one-line report to stderr on a wall-clock cadence,
// reading only thread-safe snapshots (the plane's shared Online, its replay
// driver, and the shard board's atomics), so the run itself is untouched.
// The line also reports the slowest lane's virtual time and the
// fastest-to-slowest lag — bounded by the lookahead while the barrier loop
// runs. The returned function stops the reporter and waits for it to exit.
// A non-positive cadence is a no-op.
func startProgress(every time.Duration, plane *obs.Plane, board *shard.VTBoard, stderr io.Writer) func() {
	if every <= 0 || plane == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s := plane.Online().Snapshot()
				runtime.ReadMemStats(&ms)
				vt := plane.Driver().VirtualNow()
				lo, hi := board.Bounds()
				fmt.Fprintf(stderr,
					"progress: vt=%v requests=%d compliance=%.2f%% p99=%v heap=%dMiB vt-slowest=%v shard-lag=%v\n",
					vt.Round(time.Second), s.Count, 100*s.Compliance,
					s.P99.Round(time.Millisecond), ms.HeapAlloc>>20,
					lo.Round(time.Second), (hi - lo).Round(time.Millisecond))
			}
		}
	}()
	return func() { close(stop); <-done }
}

func watchHeap(limitMiB int, stderr io.Writer) *heapWatch {
	if limitMiB <= 0 {
		return nil
	}
	w := &heapWatch{limit: uint64(limitMiB) << 20, stop: make(chan struct{})}
	// Pace the GC against the ceiling rather than GOGC's 2x-live default:
	// without this the watcher trips on floating garbage whenever live state
	// passes half the limit, even though the live set fits comfortably. If
	// live state genuinely exceeds the limit the GC cannot hold HeapAlloc
	// under it and the watcher still fires.
	debug.SetMemoryLimit(int64(w.limit))
	go func() {
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > w.peak.Load() {
					w.peak.Store(ms.HeapAlloc)
				}
				if ms.HeapAlloc > w.limit {
					fmt.Fprintf(stderr, "heap %d MiB exceeded -max-heap-mib %d\n",
						ms.HeapAlloc>>20, w.limit>>20)
					os.Exit(2)
				}
			}
		}
	}()
	return w
}

// report stops the watcher, folds in one final reading (a spike between the
// last tick and exit must not escape the ceiling), and prints the peak; a
// breach is an exit-2 error. Nil receivers (no limit set) do nothing, so the
// call site stays unconditional.
func (w *heapWatch) report(stderr io.Writer) error {
	if w == nil {
		return nil
	}
	close(w.stop)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > w.peak.Load() {
		w.peak.Store(ms.HeapAlloc)
	}
	fmt.Fprintf(stderr, "peak heap %d MiB (limit %d MiB)\n", w.peak.Load()>>20, w.limit>>20)
	if w.peak.Load() > w.limit {
		return exitError{code: 2, err: fmt.Errorf("heap exceeded -max-heap-mib %d", w.limit>>20)}
	}
	return nil
}

// writeFile creates path, fills it with fn and reports what was written; an
// empty path writes nothing.
func writeFile(stderr io.Writer, path, what string, fn func(w io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s to %s\n", what, path)
	return nil
}

// writeRecorded exports a materialized run's recorder to every requested
// path. A -trace-out without -series-out also writes the sampled series next
// to the trace (<name>_series.csv), so one flag yields both timeline
// artifacts.
func writeRecorded(stderr io.Writer, rec *telemetry.Recorder, o *options) error {
	seriesOut := o.seriesOut
	if seriesOut == "" && o.traceOut != "" && rec.Series().Len() > 0 {
		seriesOut = strings.TrimSuffix(o.traceOut, filepath.Ext(o.traceOut)) + "_series.csv"
	}
	for _, x := range []struct {
		path, what string
		fn         func(io.Writer) error
	}{
		{o.traceOut, "Chrome trace", rec.WriteChromeTrace},
		{o.spansOut, fmt.Sprintf("%d spans", len(rec.Spans())), rec.WriteSpansJSONL},
		{o.eventsOut, fmt.Sprintf("%d events", len(rec.Events())), rec.WriteEventsJSONL},
		{seriesOut, fmt.Sprintf("%d series", rec.Series().Len()), rec.Series().WriteCSV},
	} {
		if err := writeFile(stderr, x.path, x.what, x.fn); err != nil {
			return err
		}
	}
	return writeSVG(stderr, o.svgOut, rec.Series())
}

func writeSVG(stderr io.Writer, path string, s *telemetry.SeriesSet) error {
	return writeFile(stderr, path, "series timeline SVG", func(w io.Writer) error {
		return s.TimelineSVG(w, "sampled runtime series")
	})
}

// createAll creates a file for every non-empty path (ws[i] stays nil for an
// empty one); closeAll closes them, reporting the first error, and does
// nothing when called again.
func createAll(paths ...string) (ws []io.Writer, closeAll func() error, err error) {
	var files []*os.File
	closeAll = func() error {
		var first error
		for _, f := range files {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		files = nil
		return first
	}
	ws = make([]io.Writer, len(paths))
	for i, path := range paths {
		if path == "" {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		files = append(files, f)
		ws[i] = f
	}
	return ws, closeAll, nil
}

// finishMerge closes a streamed run's MergeWriter and the files it flushed
// into, then writes the series views it collected.
func finishMerge(stderr io.Writer, mw *telemetry.MergeWriter, closeFiles func() error, o *options) error {
	if err := mw.Close(); err != nil {
		return err
	}
	if err := closeFiles(); err != nil {
		return err
	}
	if o.spansOut != "" {
		fmt.Fprintf(stderr, "wrote %d spans to %s (peak %d queued per lane)\n",
			mw.SpansWritten(), o.spansOut, mw.PeakQueued())
	}
	if o.eventsOut != "" {
		fmt.Fprintf(stderr, "wrote events to %s\n", o.eventsOut)
	}
	if err := writeFile(stderr, o.seriesOut, "series", mw.Series().WriteCSV); err != nil {
		return err
	}
	return writeSVG(stderr, o.svgOut, mw.Series())
}

func printTimeline(w io.Writer, r core.Result, dur time.Duration) {
	const bucket = 30 * time.Second
	n := int(dur/bucket) + 1
	viol := make([]int, n)
	tot := make([]int, n)
	r.Collector.Each(func(rec metrics.Record) {
		i := int(rec.Arrival / bucket)
		if i >= n {
			i = n - 1
		}
		tot[i]++
		if rec.Failed || rec.Latency > r.Collector.SLO {
			viol[i]++
		}
	})
	fmt.Fprintln(w, "  violations per 30s window (violations/total):")
	for i := range viol {
		if viol[i] > 0 {
			fmt.Fprintf(w, "    t=%4ds  %6d/%-6d\n", i*30, viol[i], tot[i])
		}
	}
	fmt.Fprintln(w, "  hardware timeline:")
	for i, ev := range r.SwitchHistory {
		end := dur
		if i+1 < len(r.SwitchHistory) {
			end = r.SwitchHistory[i+1].At
		}
		fmt.Fprintf(w, "    %8v  %-12s (%v)\n", ev.At.Round(time.Second), ev.Spec,
			(end - ev.At).Round(time.Second))
	}
	fmt.Fprintln(w)
}

func pickSchemes(arg string) ([]core.Scheme, error) {
	switch strings.ToLower(arg) {
	case "paldia":
		return []core.Scheme{core.NewPaldia()}, nil
	case "oracle":
		return []core.Scheme{core.NewOracle()}, nil
	case "infless-cost":
		return []core.Scheme{core.NewINFlessLlamaCost()}, nil
	case "infless-perf":
		return []core.Scheme{core.NewINFlessLlamaPerf()}, nil
	case "molecule-cost":
		return []core.Scheme{core.NewMoleculeCost()}, nil
	case "molecule-perf":
		return []core.Scheme{core.NewMoleculePerf()}, nil
	case "all":
		return append(core.StandardSchemes(), core.NewOracle()), nil
	}
	return nil, fmt.Errorf("unknown scheme %q", arg)
}

func printResult(w io.Writer, r core.Result) {
	fmt.Fprintf(w, "=== %s — %s ===\n", r.Scheme, r.Model)
	fmt.Fprintf(w, "  requests        %d (failed %d)\n", r.Requests, r.FailedRequests)
	fmt.Fprintf(w, "  SLO compliance  %.2f%%\n", r.SLOCompliance*100)
	fmt.Fprintf(w, "  latency         P50 %v   P99 %v   mean %v\n", r.P50, r.P99, r.MeanLatency)
	if r.Collector != nil {
		b := r.Collector.TailBreakdown(99, 99.9)
		fmt.Fprintf(w, "  P99 breakdown   min %v | batch %v | queue %v | interf %v | cold %v\n",
			b.MinExec, b.BatchWait, b.QueueDelay, b.Interference, b.ColdStart)
	} else if r.Online != nil {
		b := r.Online.MeanBreakdown()
		fmt.Fprintf(w, "  mean breakdown  min %v | batch %v | queue %v | interf %v | cold %v\n",
			b.MinExec, b.BatchWait, b.QueueDelay, b.Interference, b.ColdStart)
	}
	fmt.Fprintf(w, "  cost            $%.4f (cpu $%.4f, gpu $%.4f)\n", r.Cost, r.CPUCost, r.GPUCost)
	fmt.Fprintf(w, "  power           %.0f W avg, %.1f Wh\n", r.AvgPowerW, r.EnergyWh)
	fmt.Fprintf(w, "  utilization     cpu %.0f%%  gpu %.0f%%\n", r.UtilCPU*100, r.UtilGPU*100)
	fmt.Fprintf(w, "  containers      boots %d (sync cold %d), hw switches %d\n",
		r.Boots, r.SyncColdStarts, r.Switches)
	names := make([]string, 0, len(r.HeldBySpec))
	for name := range r.HeldBySpec {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  residency      ")
	for _, name := range names {
		fmt.Fprintf(w, " %s:%.0fs", name, r.HeldBySpec[name].Seconds())
	}
	fmt.Fprintf(w, "\n\n")
}
