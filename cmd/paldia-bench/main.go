// Command paldia-bench measures the scheduling hot path and emits the
// results as machine-readable JSON (BENCH_sched.json): name, ns/op, B/op and
// allocs/op for every Eq. (1) probing and hardware-selection benchmark, plus
// the Fig. 3 end-to-end regeneration as the wall-clock anchor. `make bench`
// runs it next to the human-readable BENCH_parallel.txt.
//
// With -gate it runs only the allocation-gated benchmarks and exits non-zero
// if any of them allocates — the CI regression tripwire for the
// allocation-free scheduling paths. The gate also compares each benchmark's
// ns/op and bytes/op against the committed baseline (-baseline, default
// BENCH_sched.json) and fails on a regression beyond the tolerance;
// re-baseline by committing a fresh `make bench` run.
//
// Every rewrite of the baseline file (-out naming the -baseline path) appends
// one record to the history next to it (BENCH_sched.history.jsonl): the
// commit, GOMAXPROCS and Go version, and the rows that changed — added or
// re-measured, with their new values — and the names of rows that were
// removed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

type benchResult struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Gated       bool               `json:"gated,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type benchCase struct {
	name        string
	gated       bool // runs under -gate: ns/op regression-checked vs baseline
	allocExempt bool // gated but allowed to allocate (whole simulations inside)
	fn          func(b *testing.B) map[string]float64
}

// typicalInputs is the grid the monitor loop probes every tick for the
// current device: a few hundred outstanding requests at a vision-model batch
// size, with live demand on the device.
func typicalInputs() perfmodel.Inputs {
	return perfmodel.Inputs{
		Solo: 100 * time.Millisecond, BatchSize: 64, FBR: 0.5, N: 400,
		SLO: 200 * time.Millisecond, ExistingDemand: 0.5, ExistingJobs: 1,
	}
}

// idleInputs is the production shape of a candidate probe: idle hardware,
// with the profile table's contention memo attached the way DesiredHardware
// attaches it.
func idleInputs() perfmodel.Inputs {
	in := typicalInputs()
	in.ExistingDemand, in.ExistingJobs = 0, 0
	in.PenaltyByJobs = penaltyTableFor(in.FBR)
	return in
}

// worstInputs is the largest grid the overhead experiments exercise: a
// language-model batch size under a 4000-request surge (~500 grid points).
func worstInputs() perfmodel.Inputs {
	return perfmodel.Inputs{Solo: 100 * time.Millisecond, BatchSize: 8, FBR: 0.7, N: 4000, SLO: time.Second}
}

func penaltyTableFor(fbr float64) []float64 {
	t := make([]float64, profile.MPSMaxClients+1)
	for k := range t {
		t[k] = profile.Penalty(float64(k) * fbr)
	}
	return t
}

// bestYFanoutReference is the pre-optimization goroutine implementation of
// BestY (materialized candidates, fixed four-way fan-out), kept here as the
// measured baseline for the serial-probe comparison in BENCH_sched.json. The
// production tree contains no goroutines on the scheduling path.
func bestYFanoutReference(in perfmodel.Inputs) (int, time.Duration, bool) {
	cands := perfmodel.Candidates(in)
	if len(cands) == 0 {
		return 0, 0, true
	}
	results := make([]time.Duration, len(cands))
	var wg sync.WaitGroup
	stride := (len(cands) + 3) / 4
	for w := 0; w < len(cands); w += stride {
		lo, hi := w, w+stride
		if hi > len(cands) {
			hi = len(cands)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				results[i] = perfmodel.TMax(in, cands[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	bestI := 0
	for i := 1; i < len(cands); i++ {
		if results[i] < results[bestI] || (results[i] == results[bestI] && cands[i] < cands[bestI]) {
			bestI = i
		}
	}
	return cands[bestI], results[bestI], results[bestI] <= in.SLO
}

// schedState builds the selection/split state the core benchmarks probe:
// ResNet 50 on an M60 under the Fig. 3 surge rate.
func schedState(rate float64) *core.State {
	m := model.MustByName("ResNet 50")
	hw, ok := hardware.ByName("M60")
	if !ok {
		panic("M60 missing from catalog")
	}
	return &core.State{
		Model:        m,
		SLO:          core.DefaultSLO,
		Current:      hw,
		HasCurrent:   true,
		Entry:        profile.Lookup(m, hw),
		PredictedRPS: rate,
		ObservedRPS:  rate,
	}
}

// shardedGridCase measures the sharded executor's wall-clock scaling: the
// same fixed 4-tenant grid at 1, 2 and 4 workers, so the ns/op curve across
// the three cases is the speedup curve. With spans, every lane also feeds a
// MergeWriter into io.Discard (ShardedSpans): the barrier cut, the k-way
// merge and the span encoding ride along, drained behind the next epoch
// from 2 workers up. Whole simulations run inside, so the cases are exempt
// from the zero-alloc check but still ns/op-gated against the baseline
// (normalized like every other gated benchmark).
func shardedGridCase(workers int, spans bool) benchCase {
	name := "shard/ShardedScale"
	if spans {
		name = "shard/ShardedSpans"
	}
	return benchCase{
		name:        fmt.Sprintf("%s/shards=%d", name, workers),
		gated:       true,
		allocExempt: true,
		fn: func(b *testing.B) map[string]float64 {
			var requests int
			for i := 0; i < b.N; i++ {
				curve := trace.PoissonCurve(sim.NewRNG(7), 240, time.Minute)
				lanes := curve.Partition(4)
				var mw *telemetry.MergeWriter
				if spans {
					mw = telemetry.NewMergeWriter(io.Discard, nil, len(lanes))
				}
				cfgs := make([]core.Config, len(lanes))
				for j, lane := range lanes {
					cfgs[j] = core.Config{
						Model:   model.MustByName("ResNet 50"),
						Stream:  lane.Stream(sim.NewRNG(7)),
						Scheme:  core.NewPaldia(),
						Seed:    7,
						Metrics: core.MetricsOnline,
					}
					if mw != nil {
						cfgs[j].Telemetry = mw.Lane(j)
					}
				}
				res := shard.Run(cfgs, shard.Options{Shards: workers, Merge: mw})
				if mw != nil {
					if err := mw.Close(); err != nil {
						b.Fatal(err)
					}
				}
				requests = 0
				for _, r := range res {
					requests += r.Requests
				}
			}
			return map[string]float64{"requests_per_op": float64(requests)}
		},
	}
}

func cases(includeE2E bool) []benchCase {
	cs := []benchCase{
		{"perfmodel/TMax", true, false, func(b *testing.B) map[string]float64 {
			in := typicalInputs()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				perfmodel.TMax(in, 64)
			}
			return nil
		}},
		{"perfmodel/BestY/typical", true, false, func(b *testing.B) map[string]float64 {
			in := typicalInputs()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				perfmodel.BestY(in)
			}
			return nil
		}},
		{"perfmodel/BestY/idle-memo", true, false, func(b *testing.B) map[string]float64 {
			in := idleInputs()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				perfmodel.BestY(in)
			}
			return nil
		}},
		{"perfmodel/BestY/worst-grid", true, false, func(b *testing.B) map[string]float64 {
			in := worstInputs()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				perfmodel.BestY(in)
			}
			return nil
		}},
		{"perfmodel/BestY-fanout-reference/typical", false, false, func(b *testing.B) map[string]float64 {
			in := typicalInputs()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bestYFanoutReference(in)
			}
			return nil
		}},
		{"perfmodel/BestY-fanout-reference/worst-grid", false, false, func(b *testing.B) map[string]float64 {
			in := worstInputs()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bestYFanoutReference(in)
			}
			return nil
		}},
		{"core/SplitY", true, false, func(b *testing.B) map[string]float64 {
			st := schedState(400)
			p := core.NewPaldia().Policy
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.SplitY(st, 400)
			}
			return nil
		}},
		{"core/DesiredHardware", true, false, func(b *testing.B) map[string]float64 {
			st := schedState(400)
			p := core.NewPaldia().Policy
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.DesiredHardware(st)
			}
			return nil
		}},
		{"core/DesiredHardware-cheapest", true, false, func(b *testing.B) map[string]float64 {
			// The $-schemes' selection (INFless/Llama and Molecule): the
			// cheapest isolated-capable node at the observed rate.
			st := schedState(400)
			p := core.NewINFlessLlamaCost().Policy
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.DesiredHardware(st)
			}
			return nil
		}},
	}
	if includeE2E {
		cs = append(cs, benchCase{"experiments/Fig3-end-to-end", false, false, func(b *testing.B) map[string]float64 {
			var slo float64
			for i := 0; i < b.N; i++ {
				t := experiments.Fig3(experiments.Options{Seed: uint64(i) + 1, Reps: 1, Scale: 0.12})
				sum, n := 0.0, 0
				for r := range t.Rows {
					if v := experiments.ParsePct(t.Cell(r, len(t.Columns)-1)); v >= 0 {
						sum += v
						n++
					}
				}
				if n > 0 {
					slo = sum / float64(n) * 100
				}
			}
			return map[string]float64{"paldia_slo_pct": slo}
		}})
	}
	for _, name := range predict.Names() {
		cs = append(cs, forecasterCase(name))
	}
	for _, spans := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			cs = append(cs, shardedGridCase(workers, spans))
		}
	}
	cs = append(cs, streamWriterCase(), curveStreamCase())
	cs = append(cs, cloneDispatchCase(), ageTrackerCase(), poolChurnCase())
	return cs
}

// forecasterCase measures one forecaster's steady-state Observe+Predict
// cycle — the work the serving runtime does once per observation window and
// once per monitor tick. The ring and scratch are preallocated, so the cycle
// must stay allocation-free (the seasonal model's amortized refit scan runs
// inside the loop and is included in ns/op).
func forecasterCase(name string) benchCase {
	return benchCase{
		name:  "predict/Observe+Predict/" + name,
		gated: true,
		fn: func(b *testing.B) map[string]float64 {
			w := 500 * time.Millisecond
			f, err := predict.NewByName(name, w)
			if err != nil {
				panic(err)
			}
			// Warm past the first seasonal refits (the counts carry a
			// 17-window period, so the seasonal model measures its fitted
			// path, not the EWMA fallback).
			count := func(i int) int { return 30 + i%17 }
			for i := 0; i < 4096; i++ {
				f.Observe(time.Duration(i+1)*w, count(i))
				f.PredictRPS(time.Duration(i+1)*w, 15*time.Second)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := time.Duration(4096+i+1) * w
				f.Observe(now, count(i))
				f.PredictRPS(now, 15*time.Second)
			}
			return nil
		},
	}
}

// streamWriterCase measures the streaming telemetry path per request as
// the runtime drives it: one Arrive, one span filled in place and handed
// over, JSONL-encoded against a discarded writer. The span is reused, as the
// runtime reuses its own, so the case is fully gated — zero allocations.
func streamWriterCase() benchCase {
	return benchCase{
		name:  "telemetry/StreamWriter-lifecycle",
		gated: true,
		fn: func(b *testing.B) map[string]float64 {
			w := telemetry.NewStreamWriter(io.Discard, nil)
			defer w.Close()
			var sp telemetry.Span
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := time.Duration(i) * time.Microsecond
				w.Arrive()
				sp.Reset(int64(i), 0)
				sp.Arrived, sp.Batched, sp.Dispatched = at, at, at+time.Millisecond
				sp.Queued, sp.ExecStart, sp.ExecEnd = at+2*time.Millisecond, at+2*time.Millisecond, at+2*time.Millisecond
				sp.Completed = at + 40*time.Millisecond
				sp.Job, sp.Node, sp.Spec, sp.BatchSize, sp.Mode = int64(i+1), 0, "M60", 1, "spatial"
				w.Span(&sp)
			}
			return nil
		},
	}
}

// curveStreamCase measures lazy arrival generation: draining one minute of a
// 240 rps Poisson curve (~14k arrivals) through the batched per-bucket
// realization — the generator behind every -stream run.
func curveStreamCase() benchCase {
	return benchCase{
		name:        "trace/CurveStream-minute",
		gated:       true,
		allocExempt: true,
		fn: func(b *testing.B) map[string]float64 {
			curve := trace.PoissonCurve(sim.NewRNG(7), 240, time.Minute)
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				s := curve.Stream(sim.NewRNG(7))
				n = 0
				for {
					if _, ok := s.Next(); !ok {
						break
					}
					n++
				}
			}
			return map[string]float64{"requests_per_op": float64(n)}
		},
	}
}

// cloneDispatchCase measures one steady-state step of a clone-2 run: the
// redundant dispatcher's set recycling, paired per-pool launches, device
// racing and sibling cancellation, all through the public Running API. The
// pooled lifecycles keep the step allocation-free, so the case is fully
// gated; the simulation is re-wound off the timer when the trace runs out.
func cloneDispatchCase() benchCase {
	return benchCase{
		name:  "core/CloneDispatch-steady-step",
		gated: true,
		fn: func(b *testing.B) map[string]float64 {
			const (
				step    = 250 * time.Millisecond
				horizon = 600 * time.Second
				rps     = 80
			)
			var ru *core.Running
			var now time.Duration
			fresh := func() {
				ru = core.Start(core.Config{
					Model:  model.MustByName("ResNet 50"),
					Trace:  trace.Poisson(sim.NewRNG(7), rps, horizon),
					Scheme: core.NewPaldiaCloneK(2, false),
					Seed:   7,
				})
				ru.StepTo(30 * time.Second)
				now = ru.Now()
			}
			fresh()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if now+step > horizon-30*time.Second {
					b.StopTimer()
					fresh()
					b.StartTimer()
				}
				now += step
				ru.StepTo(now)
			}
			return map[string]float64{"requests_per_op": rps * step.Seconds()}
		},
	}
}

// ageTrackerCase measures the hedge trigger's hot pair: recording one
// completion latency into the online percentile sketch and reading the
// current hedge threshold back. Both run per request on the hedged path, so
// they are fully gated — zero allocations.
func ageTrackerCase() benchCase {
	return benchCase{
		name:  "metrics/AgeTracker-add+threshold",
		gated: true,
		fn: func(b *testing.B) map[string]float64 {
			tr := metrics.NewAgeTracker(95)
			for i := 0; i < 256; i++ {
				tr.Add(time.Duration(i%40+80) * time.Millisecond)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Add(time.Duration(i%40+80) * time.Millisecond)
				_ = tr.Threshold()
			}
			return nil
		},
	}
}

// poolChurnCase measures container-pool churn under the keep-alive policy:
// eight pools each acquire and release a container every 50 ms of virtual
// time, with a six-container burst every 15 minutes whose surplus idles past
// the 10-minute keep-alive and is reaped. The warm-up covers two burst
// periods, so the timed loop is steady state: it must not allocate, and the
// event queue holds at most one keep-alive timer per pool (pending_events is
// its peak length during the timed loop).
func poolChurnCase() benchCase {
	return benchCase{
		name:  "container/Pool-keepalive-churn",
		gated: true,
		fn: func(b *testing.B) map[string]float64 {
			const (
				pools  = 8
				step   = 50 * time.Millisecond
				period = 15 * time.Minute
				burst  = 6
			)
			eng := sim.NewEngine()
			ps := make([]*container.Pool, pools)
			for i := range ps {
				ps[i] = container.NewPool(eng, container.CPUColdStart, container.DefaultKeepAlive)
				ps[i].AddWarm(2)
			}
			var now time.Duration
			pending := 0
			cycle := func() {
				now += step
				eng.Run(now)
				n := 1
				if now%period < step {
					n = burst
				}
				for _, p := range ps {
					for j := 0; j < n; j++ {
						p.Acquire()
					}
					for j := 0; j < n; j++ {
						p.Release()
					}
				}
				pending = max(pending, eng.Pending())
			}
			for i := 0; i < int(2*period/step); i++ {
				cycle()
			}
			pending = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			return map[string]float64{"pending_events": float64(pending)}
		},
	}
}

func main() { os.Exit(run()) }

func run() int {
	var (
		out      = flag.String("out", "BENCH_sched.json", "output path for the JSON results ('-' for stdout)")
		gate     = flag.Bool("gate", false, "run only allocation-gated benchmarks and fail if any allocates, slows, or grows bytes/op past -tolerance vs -baseline (skips the end-to-end pass; writes no file unless -out is set explicitly)")
		baseline = flag.String("baseline", "BENCH_sched.json", "committed baseline for the -gate ns/op + bytes/op regression check ('' disables)")
		tol      = flag.Float64("tolerance", 0.25, "allowed relative ns/op or bytes/op regression vs the baseline before -gate fails")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote cpu profile to %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote allocation profile to %s\n", *memprofile)
		}()
	}
	outSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})

	var results []benchResult
	failed := false
	for _, c := range cases(!*gate) {
		if *gate && !c.gated {
			continue
		}
		var metrics map[string]float64
		r := testing.Benchmark(func(b *testing.B) { metrics = c.fn(b) })
		br := benchResult{
			Name:        c.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Gated:       c.gated,
			Metrics:     metrics,
		}
		if rpo := br.Metrics["requests_per_op"]; rpo > 0 && br.NsPerOp > 0 {
			// Derived throughput for the simulation-scale cases: simulated
			// requests retired per wall-clock second.
			br.Metrics["requests_per_sec"] = rpo / (br.NsPerOp / 1e9)
		}
		results = append(results, br)
		status := ""
		if c.gated && !c.allocExempt && br.AllocsPerOp > 0 {
			status = "  <-- FAIL: gated benchmark allocates"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "%-45s %12.1f ns/op %8d B/op %6d allocs/op%s\n",
			c.name, br.NsPerOp, br.BytesPerOp, br.AllocsPerOp, status)
	}

	if !*gate || outSet {
		doc := struct {
			GeneratedBy string        `json:"generated_by"`
			Go          string        `json:"go"`
			GOMAXPROCS  int           `json:"gomaxprocs"`
			Benchmarks  []benchResult `json:"benchmarks"`
		}{"cmd/paldia-bench", runtime.Version(), runtime.GOMAXPROCS(0), results}
		enc, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal: %v\n", err)
			return 1
		}
		enc = append(enc, '\n')
		rebaseline := *baseline != "" && filepath.Clean(*out) == filepath.Clean(*baseline)
		var prev []benchResult
		if rebaseline {
			prev = readBaseline(*baseline)
		}
		if *out == "-" {
			os.Stdout.Write(enc)
		} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
			return 1
		} else {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
		}
		if rebaseline {
			path := historyPath(*baseline)
			if err := appendHistory(path, historyRecord(commit(), runtime.GOMAXPROCS(0), prev, results)); err != nil {
				fmt.Fprintf(os.Stderr, "history %s: %v\n", path, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "appended the re-baseline to %s\n", path)
		}
	}
	if *gate && *baseline != "" && !checkBaseline(*baseline, results, *tol) {
		failed = true
	}
	if failed {
		fmt.Fprintln(os.Stderr, "scheduling gate FAILED (allocation or ns/op regression above)")
		return 1
	}
	return 0
}

// readBaseline returns the rows of the baseline file at path; none when it
// is missing or malformed.
func readBaseline(path string) []benchResult {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var doc struct {
		Benchmarks []benchResult `json:"benchmarks"`
	}
	if json.Unmarshal(raw, &doc) != nil {
		return nil
	}
	return doc.Benchmarks
}

// historyPath is the re-baseline history kept next to the baseline at path:
// BENCH_sched.json -> BENCH_sched.history.jsonl.
func historyPath(path string) string {
	return strings.TrimSuffix(path, filepath.Ext(path)) + ".history.jsonl"
}

// history is one re-baseline: where and how it was measured, and what it
// changed in the baseline.
type history struct {
	Commit     string        `json:"commit"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Go         string        `json:"go"`
	Changed    []benchResult `json:"changed"`
	Removed    []string      `json:"removed,omitempty"`
}

// historyRecord diffs the new baseline rows against the previous ones: rows
// added or whose numbers differ are Changed (new values), rows gone are
// Removed.
func historyRecord(commit string, procs int, prev, next []benchResult) history {
	h := history{Commit: commit, GOMAXPROCS: procs, Go: runtime.Version()}
	old := make(map[string]benchResult, len(prev))
	for _, r := range prev {
		old[r.Name] = r
	}
	for _, r := range next {
		if o, ok := old[r.Name]; !ok || !reflect.DeepEqual(o, r) {
			h.Changed = append(h.Changed, r)
		}
		delete(old, r.Name)
	}
	for _, r := range prev {
		if _, gone := old[r.Name]; gone {
			h.Removed = append(h.Removed, r.Name)
		}
	}
	return h
}

// appendHistory appends h to the JSONL history at path.
func appendHistory(path string, h history) error {
	line, err := json.Marshal(h)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit is the checkout's git commit, suffixed "-dirty" when tracked files
// differ from it; "unknown" outside a git tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(out))
	if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
		c += "-dirty"
	}
	return c
}

// checkBaseline compares each result's ns/op and bytes/op against the
// committed baseline file and reports false when any benchmark regressed
// beyond tol. The CI runner and the machine that produced the baseline
// differ in raw speed, so the per-benchmark ns/op ratios are first
// normalized by their median: a uniform host factor cancels, and what
// remains is one path regressing relative to the others — the thing a code
// change can actually cause. Bytes/op needs no normalization (the
// simulations are deterministic, so allocation volume is host-independent)
// and is compared directly. Speedups past the same margin only hint at
// re-baselining (commit a fresh `make bench` run); a missing or unreadable
// baseline warns and passes, so the gate keeps working on branches that
// predate the file.
func checkBaseline(path string, results []benchResult, tol float64) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "baseline %s unreadable (%v); skipping ns/op regression check\n", path, err)
		return true
	}
	var doc struct {
		Benchmarks []benchResult `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "baseline %s malformed (%v); skipping ns/op regression check\n", path, err)
		return true
	}
	base := make(map[string]benchResult, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		base[b.Name] = b
	}
	type cmp struct {
		name                 string
		have, want           float64
		haveBytes, wantBytes int64
		ratio                float64
	}
	var cmps []cmp
	for _, r := range results {
		if b, ok := base[r.Name]; ok && b.NsPerOp > 0 {
			cmps = append(cmps, cmp{
				name: r.Name, have: r.NsPerOp, want: b.NsPerOp,
				haveBytes: r.BytesPerOp, wantBytes: b.BytesPerOp,
				ratio: r.NsPerOp / b.NsPerOp,
			})
		} else {
			fmt.Fprintf(os.Stderr, "%-45s not in baseline; skipped\n", r.Name)
		}
	}
	if len(cmps) == 0 {
		fmt.Fprintf(os.Stderr, "baseline %s shares no benchmarks with this run; skipping ns/op regression check\n", path)
		return true
	}
	ratios := make([]float64, len(cmps))
	for i, c := range cmps {
		ratios[i] = c.ratio
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if n := len(ratios); n%2 == 0 {
		median = (ratios[n/2-1] + ratios[n/2]) / 2
	}
	fmt.Fprintf(os.Stderr, "host speed vs baseline machine: %.2fx (median ratio; per-benchmark checks are normalized by it)\n", median)
	ok := true
	for _, c := range cmps {
		if c.wantBytes > 0 && float64(c.haveBytes) > (1+tol)*float64(c.wantBytes) {
			fmt.Fprintf(os.Stderr, "%-45s %8d B/op vs baseline %d  <-- FAIL: bytes/op regression beyond %.0f%%\n", c.name, c.haveBytes, c.wantBytes, tol*100)
			ok = false
		}
		norm := c.ratio / median
		switch {
		case norm > 1+tol:
			fmt.Fprintf(os.Stderr, "%-45s %12.1f ns/op vs baseline %.1f (normalized %.2fx)  <-- FAIL: regression beyond %.0f%%\n",
				c.name, c.have, c.want, norm, tol*100)
			ok = false
		case norm < 1-tol:
			fmt.Fprintf(os.Stderr, "%-45s %12.1f ns/op vs baseline %.1f (normalized %.2fx)  — faster; consider re-baselining (commit a fresh `make bench`)\n",
				c.name, c.have, c.want, norm)
		default:
			fmt.Fprintf(os.Stderr, "%-45s %12.1f ns/op vs baseline %.1f (normalized %.2fx)  ok\n",
				c.name, c.have, c.want, norm)
		}
	}
	return ok
}
