package experiments

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// equalityOptions is a reduced-scale configuration that still exercises
// repetition indexing (Reps > 1) and a full (model x scheme) grid.
func equalityOptions() Options {
	return Options{Seed: 7, Reps: 2, Scale: 0.02}
}

// renderSVGs renders every SVG figure of a table to bytes.
func renderSVGs(t *testing.T, tb *Table) [][]byte {
	t.Helper()
	var out [][]byte
	for _, fig := range tb.SVGs {
		var buf bytes.Buffer
		if err := fig.Render(&buf); err != nil {
			t.Fatalf("render %s: %v", fig.Name, err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// assertTablesIdentical requires two tables to be deeply equal in every
// rendered respect: rows, notes, terminal plot, and SVG bytes.
func assertTablesIdentical(t *testing.T, serial, parallel *Table) {
	t.Helper()
	if serial.ID != parallel.ID || serial.Title != parallel.Title {
		t.Fatalf("header differs: %q/%q vs %q/%q",
			serial.ID, serial.Title, parallel.ID, parallel.Title)
	}
	if !reflect.DeepEqual(serial.Columns, parallel.Columns) {
		t.Fatalf("columns differ:\nserial:   %v\nparallel: %v", serial.Columns, parallel.Columns)
	}
	if !reflect.DeepEqual(serial.Rows, parallel.Rows) {
		t.Fatalf("rows differ:\nserial:   %v\nparallel: %v", serial.Rows, parallel.Rows)
	}
	if !reflect.DeepEqual(serial.Notes, parallel.Notes) {
		t.Fatalf("notes differ:\nserial:   %v\nparallel: %v", serial.Notes, parallel.Notes)
	}
	if serial.Plot != parallel.Plot {
		t.Fatalf("plots differ:\nserial:\n%s\nparallel:\n%s", serial.Plot, parallel.Plot)
	}
	ss, ps := renderSVGs(t, serial), renderSVGs(t, parallel)
	if len(ss) != len(ps) {
		t.Fatalf("SVG count differs: %d vs %d", len(ss), len(ps))
	}
	for i := range ss {
		if !bytes.Equal(ss[i], ps[i]) {
			t.Fatalf("SVG %q differs between serial and parallel runs", serial.SVGs[i].Name)
		}
	}
}

// TestSerialParallelEquality is the determinism guarantee: grid experiments
// (reduced-scale Fig3: 12 models x 5 schemes x 2 reps, plus the experiments
// that reduce per-request records on the worker — Fig4, Fig6, Fig7 and
// MultiTenant) must render byte-identically whether cells run serially or
// fanned out over 4 workers. Run under -race with -cpu 1,4 in CI, where a
// Collector lent to two runs at once would trip the race detector.
func TestSerialParallelEquality(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(Options) *Table
	}{
		{"fig3", Fig3}, {"fig4", Fig4}, {"fig6", Fig6}, {"fig7", Fig7},
		{"multitenant", MultiTenant},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serialOpts := equalityOptions()
			serialOpts.Parallelism = 1
			parOpts := equalityOptions()
			parOpts.Parallelism = 4
			assertTablesIdentical(t, tc.run(serialOpts), tc.run(parOpts))
		})
	}
}

// TestRunCellsLendsCollectors pins the grid's record storage: every run
// fills a Collector lent through Config.Aggregator, a cell's reduce sees the
// very Collector the run filled, the grid holds at most one per worker, and
// no aggregate keeps one.
func TestRunCellsLendsCollectors(t *testing.T) {
	m := model.MustByName("ResNet 50")
	src := &source{realize: func(rng *sim.RNG) *trace.Trace { return trace.Stable(rng, 40, 30*time.Second) }}
	for _, par := range []int{1, 3} {
		var mu sync.Mutex
		lent := map[*metrics.Collector]bool{}
		o := Options{Seed: 3, Reps: 2, Scale: 0.02, Parallelism: par}
		o.Run = func(cfg core.Config) core.Result {
			res := core.Run(cfg)
			if res.Collector == nil || res.Collector != cfg.Aggregator {
				t.Errorf("run filled %v, not the lent Collector %v", res.Collector, cfg.Aggregator)
			}
			mu.Lock()
			lent[res.Collector] = true
			mu.Unlock()
			return res
		}
		var cells []cell
		counts := make([]int, 4*o.Reps)
		for ci, slo := range []time.Duration{0, 0, 150 * time.Millisecond, 0} {
			cells = append(cells, cell{m: m, src: src, scheme: core.NewPaldia(),
				mut: func(cfg *core.Config) { cfg.SLO = slo },
				reduce: func(rep int, cfg core.Config, col *metrics.Collector) {
					want := slo
					if want == 0 {
						want = core.DefaultSLO
					}
					if col.SLO != want {
						t.Errorf("cell %d: Collector judges against %v, want %v", ci, col.SLO, want)
					}
					if cfg.Aggregator != col {
						t.Errorf("cell %d: reduce got a Collector the run did not fill", ci)
					}
					counts[ci*o.Reps+rep] = col.Count()
				}})
		}
		for ci, a := range runCells(o, cells) {
			for rep, res := range a.Results {
				if res.Collector != nil {
					t.Errorf("parallelism %d: cell %d rep %d keeps its Collector", par, ci, rep)
				}
				if res.Requests != counts[ci*o.Reps+rep] {
					t.Errorf("parallelism %d: cell %d rep %d: reduce saw %d records, run served %d",
						par, ci, rep, counts[ci*o.Reps+rep], res.Requests)
				}
			}
		}
		if len(lent) > par {
			t.Errorf("parallelism %d: %d Collectors lent, want at most one per worker", par, len(lent))
		}
	}
}

// TestRunCellsRealizesEachSourceOncePerRep pins trace sharing: a grid
// realizes each source once per repetition — serially, over four workers
// and over a shared pool — and aggregates exactly as a grid in which every
// cell owns its source. The cells interleave two sources, so sharing
// follows source identity, not cell adjacency; the Oracle cells read the
// shared trace ahead of time.
func TestRunCellsRealizesEachSourceOncePerRep(t *testing.T) {
	m := model.MustByName("ResNet 50")
	var realized atomic.Int64
	recipe := func(rate float64) func(*sim.RNG) *trace.Trace {
		return func(rng *sim.RNG) *trace.Trace {
			realized.Add(1)
			return trace.Stable(rng, rate, 30*time.Second)
		}
	}
	rates := []float64{40, 90}
	grid := func(own bool) []cell {
		srcs := make([]*source, len(rates))
		for i, rate := range rates {
			srcs[i] = &source{realize: recipe(rate)}
		}
		var cells []cell
		for _, s := range []core.Scheme{core.NewPaldia(), core.NewOracle(), core.NewINFlessLlamaCost()} {
			for i, src := range srcs {
				if own {
					src = &source{realize: recipe(rates[i])}
				}
				cells = append(cells, cell{m: m, src: src, scheme: s})
			}
		}
		return cells
	}
	const reps = 3
	ref := runCells(Options{Seed: 5, Reps: reps, Parallelism: 1}, grid(true))
	if n := realized.Swap(0); n != int64(len(ref)*reps) {
		t.Fatalf("reference grid realized %d traces, want one per run (%d)", n, len(ref)*reps)
	}
	for _, o := range []Options{
		{Seed: 5, Reps: reps, Parallelism: 1},
		{Seed: 5, Reps: reps, Parallelism: 4},
		{Seed: 5, Reps: reps, Parallelism: 2, Pool: NewPool(2)},
	} {
		got := runCells(o, grid(false))
		if n := realized.Swap(0); n != int64(len(rates)*reps) {
			t.Errorf("parallelism %d (pool %v): %d traces realized, want %d sources x %d reps",
				o.Parallelism, o.Pool != nil, n, len(rates), reps)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("parallelism %d (pool %v): aggregates differ from the grid of owned sources",
				o.Parallelism, o.Pool != nil)
		}
	}

	// Fig. 3 realizes one trace per (model, rep), not one per run: its 12
	// models x 5 reps give 60 traces over 300 runs. The hook keeps every
	// trace it sees, so no address is reused by a later trace.
	var mu sync.Mutex
	runs, traces := 0, map[*trace.Trace]bool{}
	o := Options{Seed: 1, Reps: 5, Scale: 0.02, Parallelism: 1}
	o.Run = func(cfg core.Config) core.Result {
		mu.Lock()
		runs++
		traces[cfg.Trace] = true
		mu.Unlock()
		return core.Result{Model: cfg.Model.Name, Scheme: cfg.Scheme.Name()}
	}
	Fig3(o)
	if runs != 300 || len(traces) != 60 {
		t.Errorf("Fig. 3 at 5 reps ran %d simulations on %d traces, want 300 on 60", runs, len(traces))
	}
}

// TestSharedDropsAfterLastMember checks a shared input is built once and
// released only when its last member is done.
func TestSharedDropsAfterLastMember(t *testing.T) {
	var s shared[*trace.Trace]
	s.left.Store(2)
	builds := 0
	build := func() *trace.Trace { builds++; return &trace.Trace{Name: "x"} }
	a, b := s.get(build), s.get(build)
	if builds != 1 || a != b {
		t.Fatalf("built %d times, members got %p and %p; want one shared build", builds, a, b)
	}
	s.done()
	if s.v == nil {
		t.Fatal("input dropped while a member still holds it")
	}
	s.done()
	if s.v != nil {
		t.Fatal("input kept after the last member was done")
	}
}

// TestForecastFrontierSerialParallelEquality extends the determinism
// guarantee to the forecaster sweep: backtest columns and simulation columns
// must both be byte-identical at any parallelism.
func TestForecastFrontierSerialParallelEquality(t *testing.T) {
	serialOpts := equalityOptions()
	serialOpts.Parallelism = 1
	parOpts := equalityOptions()
	parOpts.Parallelism = 4

	assertTablesIdentical(t, ForecastFrontier(serialOpts), ForecastFrontier(parOpts))
}

// TestSharedPoolAcrossExperiments mirrors cmd/paldia-experiments -j: several
// experiments running concurrently over one shared pool must neither deadlock
// nor perturb results.
func TestSharedPoolAcrossExperiments(t *testing.T) {
	serialOpts := equalityOptions()
	serialOpts.Parallelism = 1
	wantFig5 := Fig5(serialOpts)
	wantFig8 := Fig8(serialOpts)

	parOpts := equalityOptions()
	parOpts.Parallelism = 2
	parOpts.Pool = NewPool(2)
	var gotFig5, gotFig8 *Table
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotFig5 = Fig5(parOpts) }()
	go func() { defer wg.Done(); gotFig8 = Fig8(parOpts) }()
	wg.Wait()

	assertTablesIdentical(t, wantFig5, gotFig5)
	assertTablesIdentical(t, wantFig8, gotFig8)
}

// TestParRangeIndexing checks the fan-out primitive delivers every index
// exactly once at any parallelism.
func TestParRangeIndexing(t *testing.T) {
	for _, par := range []int{1, 3, 16} {
		o := Options{Parallelism: par}
		hits := make([]int, 100)
		o.parRange(len(hits), func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("parallelism %d: index %d ran %d times", par, i, h)
			}
		}
	}
	// n = 0 must be a no-op.
	(Options{Parallelism: 4}).parRange(0, func(int) { t.Fatal("called for n=0") })
}

// TestWorkersResolution pins the Parallelism contract: 0 means one worker per
// CPU, negatives clamp to serial.
func TestWorkersResolution(t *testing.T) {
	if w := (Options{Parallelism: -3}).workers(); w != 1 {
		t.Fatalf("negative parallelism resolves to %d workers, want 1", w)
	}
	if w := (Options{}).workers(); w < 1 {
		t.Fatalf("default parallelism resolves to %d workers", w)
	}
	if w := (Options{Parallelism: 5}).workers(); w != 5 {
		t.Fatalf("explicit parallelism resolves to %d workers, want 5", w)
	}
}
