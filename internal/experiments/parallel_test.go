package experiments

import (
	"bytes"
	"reflect"
	"sync"
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
	gen := func(rng *sim.RNG) *trace.Trace { return trace.Stable(rng, 40, 30*time.Second) }
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
			cells = append(cells, cell{m: m, gen: gen, scheme: core.NewPaldia(),
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
