// Command bench is the Paldia simulator's end-to-end benchmark. It replays
// four fixed workloads as fast as the host allows and reports host metrics
// (simulated requests per host second, set-up time, allocation, peak heap,
// 2-CPU speedup) next to the simulated ones (SLO compliance, P99, cost),
// then splits the host time layer by layer in a separate traced pass.
//
// Run it from the repository root (see run.sh, which builds it first):
//
//	bash bench/run.sh                        # all workloads, round-robin; tables + JSON
//	bash bench/run.sh -quick                 # tiny inputs, one round
//	bash bench/run.sh --workload azure-stream --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh -compare parent.json change.json
//
// With --workload it measures that workload alone for --seconds and prints,
// as its last line, one JSON object with the end-to-end metrics (--trace 0)
// or the per-layer metrics (--trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// metricDef names one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; BENCHMARK.json carries the same table.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd's bounds were set from the interquartile spread of per-run
// medians across ten seeds, measured in several ten-seed sets on a shared
// 2-vCPU VM (see README.md): each bound is at least three times the widest
// spread seen, except sim_req_per_s, allocs_per_req and speedup_2cpu, at
// the 0.25 ceiling with about twice. A tighter bound would flag the seeds'
// own variation, and for host times the host's, as regressions.
var endToEnd = []metricDef{
	{"sim_req_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_bytes_per_req", "B", "lower", 0.15},
	{"allocs_per_req", "count", "lower", 0.25},
	{"peak_live_heap_mib", "MiB", "lower", 0.20},
	{"speedup_2cpu", "x", "higher", 0.25},
	{"slo_compliance_pct", "%", "higher", 0.03},
	{"p99_ms", "ms", "lower", 0.15},
	{"cost_usd", "USD", "lower", 0.15},
}

// perLayer lists the traced pass's metrics in report order. They carry no
// bound; better is "lower" for all but batch.mean_batch (fewer, larger
// device jobs).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "trace.next_ns", unit: "ns"},
		{name: "trace.next_calls", unit: "count"},
		{name: "metrics.add_ns", unit: "ns"},
		{name: "core.select_ns", unit: "ns"},
		{name: "core.select_calls", unit: "count"},
		{name: "core.split_ns", unit: "ns"},
		{name: "core.split_calls", unit: "count"},
		{name: "telemetry.sink_ns", unit: "ns"},
		{name: "telemetry.events_per_req", unit: "count"},
		{name: "shard.epochs", unit: "count"},
		{name: "shard.epoch_us", unit: "us"},
		{name: "sim.instants_per_req", unit: "count"},
		{name: "core.residual_ns_per_req", unit: "ns"},
		{name: "sim.failed_req_pct", unit: "%"},
		{name: "batch.mean_batch", unit: "count"},
		{name: "device.jobs", unit: "count"},
		{name: "device.queued_share", unit: "%"},
		{name: "container.cold_boots", unit: "count"},
		{name: "container.prewarmed", unit: "count"},
		{name: "container.reaped", unit: "count"},
		{name: "cluster.nodes_requested", unit: "count"},
		{name: "cluster.hw_switches", unit: "count"},
		{name: "cluster.revocations", unit: "count"},
		{name: "redundancy.copies_per_req", unit: "count"},
		{name: "redundancy.cancel_ratio", unit: "ratio"},
	}
	for _, g := range cpuGroups {
		defs = append(defs, metricDef{name: "cpu." + g, unit: "%"})
	}
	for _, r := range ladderRungs {
		defs = append(defs,
			metricDef{name: "ladder." + r + ".ns_per_req", unit: "ns"},
			metricDef{name: "ladder." + r + ".bytes_per_req", unit: "B"})
	}
	defs = append(defs, metricDef{name: "bench.trace_overhead_pct", unit: "%"})
	for i := range defs {
		defs[i].better = "lower"
		if defs[i].name == "batch.mean_batch" {
			defs[i].better = "higher"
		}
	}
	return defs
}()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wlName  = fs.String("workload", "", "measure one workload alone and print a one-line JSON result (empty: every workload, round-robin)")
		seed    = fs.Uint64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 20, "with -workload: seconds to measure for")
		traced  = fs.Int("trace", 0, "with -workload: 0 prints end-to-end metrics (timed pass), 1 per-layer metrics (traced pass)")
		out     = fs.String("out", "", "also write the results as JSON to this file (default .bench_build/results.json without -workload)")
		quick   = fs.Bool("quick", false, "tiny inputs and one round, as a smoke test")
		compare = fs.Bool("compare", false, "compare two result files: -compare parent.json change.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare parent.json change.json")
			return 2
		}
		parent, err := readResultFile(fs.Arg(0))
		if err == nil {
			var change *resultFile
			if change, err = readResultFile(fs.Arg(1)); err == nil {
				if compareFiles(stdout, parent, change) > 0 {
					return 1
				}
				return 0
			}
		}
		fmt.Fprintln(stderr, err)
		return 1
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		return 2
	}
	sz, rounds := fullSizes, fullRounds
	if *quick {
		sz, rounds = quickSizes, 1
	}
	if *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "-seconds must be at least 1, -trace 0 or 1")
		return 2
	}

	cfg := runConfig{sz: sz, seed: *seed, hiP: min(2, runtime.NumCPU()), log: stderr}
	var (
		res *resultFile
		wl  workload
	)
	if *wlName != "" {
		var ok bool
		if wl, ok = findWorkload(*wlName); !ok {
			fmt.Fprintf(stderr, "unknown workload %q (have %s)\n", *wlName, strings.Join(workloadNames(), ", "))
			return 2
		}
		res = cfg.single(wl, time.Duration(*seconds)*time.Second, *traced == 1)
	} else {
		budget := 3 * time.Second
		if *quick {
			budget = 0
		}
		res = cfg.all(rounds, budget)
		if *out == "" {
			*out = ".bench_build/results.json"
		}
	}
	printResults(stdout, res)
	for _, f := range res.Checks.Failures {
		fmt.Fprintln(stderr, "check failed:", f)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stderr, "wrote", *out)
	}
	if *wlName != "" {
		line, err := resultLine(res.Workloads[wl.name], res.Checks, *traced == 1)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	if res.Checks.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runConfig is what every measured workload shares in one invocation.
type runConfig struct {
	sz   sizes
	seed uint64
	hiP  int // the second side of each GOMAXPROCS pair: min(2, nproc)
	log  io.Writer
}

const (
	// minPairs keeps a short -seconds from leaving too few samples for
	// quartiles.
	minPairs = 3
	// fullRounds is the number of timed rounds after the warm-up round when
	// every workload runs, enough for the paired-run rule of -compare.
	fullRounds = 10
)

// single measures one workload for d: the timed pass, or (traced) three
// timed repetitions for the overhead base, the traced pass for half of d,
// and the ladder.
func (rc runConfig) single(w workload, d time.Duration, traced bool) *resultFile {
	c := &checks{}
	m := newMeter()
	r := &wlRun{w: w, sz: rc.sz, seed: rc.seed, hiP: rc.hiP, m: m, checks: c}
	wr := &workloadResult{}
	r.warm()
	if !traced {
		deadline := time.Now().Add(d)
		for i := 0; i < minPairs || time.Now().Before(deadline); i++ {
			r.pair(i%2 == 1)
		}
		wr.EndToEnd = withDefs(endToEnd, r.endToEnd())
	} else {
		for i := 0; i < minPairs; i++ {
			r.one = append(r.one, r.rep(1))
		}
		layer, err := r.traced(d / 2)
		if err != nil {
			c.op(err.Error())
			layer = map[string]float64{}
		}
		for k, v := range ladder(m, rc.sz, rc.seed, c) {
			layer[k] = v
		}
		wr.PerLayer = layerResults(layer)
	}
	res := rc.newResult("workload", m, c)
	res.Workloads[w.name] = wr
	return res
}

// all measures every workload: one warm-up round, then rounds timed rounds
// with workloads interleaved round-robin (so drift in host speed hits each
// alike), then one ladder and each workload's traced pass for budget (at
// least one repetition).
func (rc runConfig) all(rounds int, budget time.Duration) *resultFile {
	c := &checks{}
	m := newMeter()
	runs := make([]*wlRun, len(workloads))
	for i, w := range workloads {
		runs[i] = &wlRun{w: w, sz: rc.sz, seed: rc.seed, hiP: rc.hiP, m: m, checks: c}
		fmt.Fprintf(rc.log, "warm-up %s\n", w.name)
		runs[i].warm()
	}
	for round := 0; round < rounds; round++ {
		for _, r := range runs {
			r.pair(round%2 == 1)
		}
		fmt.Fprintf(rc.log, "round %d/%d done\n", round+1, rounds)
	}
	lad := ladder(m, rc.sz, rc.seed, c)
	workloadsOut := map[string]*workloadResult{}
	for _, r := range runs {
		fmt.Fprintf(rc.log, "traced pass %s\n", r.w.name)
		layer, err := r.traced(budget)
		if err != nil {
			c.op(err.Error())
			layer = map[string]float64{}
		}
		for k, v := range lad {
			layer[k] = v
		}
		workloadsOut[r.w.name] = &workloadResult{
			EndToEnd: withDefs(endToEnd, r.endToEnd()),
			PerLayer: layerResults(layer),
		}
	}
	res := rc.newResult("all", m, c)
	res.Workloads = workloadsOut
	return res
}

func (rc runConfig) newResult(mode string, m *meter, c *checks) *resultFile {
	return &resultFile{
		Meta: meta{
			GoVersion:   runtime.Version(),
			NProc:       runtime.NumCPU(),
			GOMAXPROCS:  []int{1, rc.hiP},
			Commit:      gitCommit(),
			Seed:        rc.seed,
			Mode:        mode,
			RefKernelMs: refKernelMs,
			Kernel:      m.readings,
		},
		Workloads: map[string]*workloadResult{},
		Checks:    c.checkReport,
	}
}

// gitCommit is the checked-out commit, or "unknown" outside a git work
// tree.
func gitCommit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func withDefs(defs []metricDef, stats map[string]stat) map[string]metricResult {
	out := make(map[string]metricResult, len(defs))
	for _, d := range defs {
		if s, ok := stats[d.name]; ok {
			out[d.name] = metricResult{Unit: d.unit, Better: d.better, Bound: d.bound, stat: s}
		}
	}
	return out
}

func layerResults(values map[string]float64) map[string]metricResult {
	stats := make(map[string]stat, len(values))
	for k, v := range values {
		stats[k] = summarize([]float64{v})
	}
	return withDefs(perLayer, stats)
}

// resultLine is the one-line JSON result of a single-workload run: every
// end-to-end metric (timed pass) or every per-layer metric (traced pass),
// each at its median.
func resultLine(wr *workloadResult, c checkReport, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, got := endToEnd, wr.EndToEnd
	if traced {
		defs, got = perLayer, wr.PerLayer
	}
	ms := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		ms[d.name] = value{m.Median, d.unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{c.Failed == 0, c.Attempted, c.Failed, ms})
	return string(b), err
}

func printResults(w io.Writer, res *resultFile) {
	m := res.Meta
	fmt.Fprintf(w, "%s  nproc=%d  GOMAXPROCS=%v  commit=%s  seed=%d\n", m.GoVersion, m.NProc, m.GOMAXPROCS, m.Commit, m.Seed)
	if len(m.Kernel) > 0 {
		fmt.Fprintf(w, "host kernel (reference %.0f ms), median %.1f ms, range %.1f-%.1f ms over %d readings\n",
			m.RefKernelMs, median(m.Kernel), slices.Min(m.Kernel), slices.Max(m.Kernel), len(m.Kernel))
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, section := range []struct {
		title string
		defs  []metricDef
		get   func(*workloadResult) map[string]metricResult
	}{
		{"end to end", endToEnd, func(r *workloadResult) map[string]metricResult { return r.EndToEnd }},
		{"per layer (traced pass)", perLayer, func(r *workloadResult) map[string]metricResult { return r.PerLayer }},
	} {
		header := false
		for _, wl := range workloadNames() {
			wr := res.Workloads[wl]
			if wr == nil || len(section.get(wr)) == 0 {
				continue
			}
			if !header {
				fmt.Fprintf(tw, "\n%s\nworkload\tmetric\tunit\tmedian\tp25\tp75\tn\n", section.title)
				header = true
			}
			for _, d := range section.defs {
				if r, ok := section.get(wr)[d.name]; ok {
					fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", wl, d.name, d.unit, r.Median, r.P25, r.P75, r.N)
				}
			}
		}
	}
	fmt.Fprintf(tw, "\nchecks: %d operations, %d failed\n", res.Checks.Attempted, res.Checks.Failed)
	tw.Flush()
}

func writeJSON(path string, res *resultFile) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
