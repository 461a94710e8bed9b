// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) on the simulated substrate. Each experiment is a
// function from Options to a Table of the same rows/series the paper plots;
// cmd/paldia-experiments renders them, and bench_test.go exposes one
// benchmark per experiment.
//
// Absolute numbers differ from the paper (the substrate is a calibrated
// simulator, not the authors' EC2 cluster); the experiments are judged on
// shape: which scheme wins, by roughly what factor, and where the
// crossovers fall. EXPERIMENTS.md records paper-vs-measured for every entry.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/svgplot"
	"repro/internal/trace"
)

// Options control experiment scale, reproducibility and parallelism.
type Options struct {
	// Seed roots all randomness.
	Seed uint64
	// Reps is the number of repetitions per data point; results aggregate
	// with the paper's outlier rule (drop beyond 2.5 sigma). The paper uses
	// 5.
	Reps int
	// Scale shrinks trace durations for quick runs (1 = paper scale).
	Scale float64
	// Parallelism is the number of simulations run concurrently: every
	// (model, trace, scheme, repetition) cell is an independent run, and
	// results are collected indexed by cell, so tables are byte-identical at
	// any value. 0 means one worker per CPU; 1 runs serially with no
	// goroutines.
	Parallelism int
	// Pool, when set, overrides the per-experiment worker pool with a shared
	// one, bounding total concurrency across experiments running at the same
	// time (see cmd/paldia-experiments -j).
	Pool *Pool

	// Forecaster selects the default rate-forecasting model by name for every
	// simulation an experiment runs (empty = "ewma"); experiments that sweep
	// forecasters themselves (forecast-frontier) override it per cell. See
	// predict.NewByName for the registry.
	Forecaster string

	// Run and RunMulti, when set, replace core.Run / core.RunMulti for every
	// simulation an experiment executes. Tests use them to instrument whole
	// experiment grids (e.g. attach a fresh invariant.Checker per run); they
	// must behave like the functions they replace. Nil uses the real runners.
	// A grid lends each run its Collector (through Config.Aggregator) and
	// reuses it once Run returns, so a hook must not keep the Result's
	// Collector or read it later. Sibling cells share one realized trace per
	// repetition (and the multi-tenant table one set of tenant traces), so a
	// hook must not modify cfg.Trace or a workload's Trace.
	Run      func(core.Config) core.Result
	RunMulti func(core.MultiConfig) core.MultiResult
}

// run dispatches one simulation through the Run hook (or core.Run).
func (o Options) run(cfg core.Config) core.Result {
	if cfg.Forecaster == "" {
		cfg.Forecaster = o.Forecaster
	}
	if o.Run != nil {
		return o.Run(cfg)
	}
	return core.Run(cfg)
}

// runMulti dispatches one multi-tenant simulation through the RunMulti hook
// (or core.RunMulti).
func (o Options) runMulti(cfg core.MultiConfig) core.MultiResult {
	if cfg.Forecaster == "" {
		cfg.Forecaster = o.Forecaster
	}
	if o.RunMulti != nil {
		return o.RunMulti(cfg)
	}
	return core.RunMulti(cfg)
}

func (o Options) normalize() Options {
	if o.Reps < 1 {
		o.Reps = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// dur scales a paper-scale duration.
func (o Options) dur(d time.Duration) time.Duration {
	s := time.Duration(float64(d) * o.Scale)
	if s < 30*time.Second {
		s = 30 * time.Second
	}
	return s
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier ("fig3", "table2", ...).
	ID string
	// Title describes what the paper's figure/table shows.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, as formatted strings.
	Rows [][]string
	// Notes carry caveats and substitutions.
	Notes []string
	// Plot, when non-empty, is a terminal chart of the figure's shape.
	Plot string
	// SVGs are renderable figure files (written by paldia-experiments -svg).
	SVGs []SVGFigure
}

// SVGFigure is one renderable figure of an experiment.
type SVGFigure struct {
	// Name is the file stem, e.g. "fig3-compliance".
	Name string
	// Render writes the standalone SVG.
	Render func(w io.Writer) error
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", strings.ToUpper(t.ID), t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Plot != "" {
		fmt.Fprintf(&b, "\n%s", t.Plot)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\nnote: %s\n", n)
	}
	return b.String()
}

// Cell returns one data cell (empty string when out of range).
func (t *Table) Cell(row, col int) string {
	if row < 0 || row >= len(t.Rows) || col < 0 || col >= len(t.Rows[row]) {
		return ""
	}
	return t.Rows[row][col]
}

// FindRow returns the index of the first row whose given column equals
// value, or -1.
func (t *Table) FindRow(col int, value string) int {
	for i, row := range t.Rows {
		if col < len(row) && row[col] == value {
			return i
		}
	}
	return -1
}

// ParsePct converts a table cell like "99.25%" back into a fraction; it
// returns -1 for malformed cells.
func ParsePct(cell string) float64 {
	var v float64
	if _, err := fmt.Sscanf(cell, "%f%%", &v); err != nil {
		return -1
	}
	return v / 100
}

// WriteCSV writes the table's header and data rows as RFC 4180 CSV, for
// downstream analysis of any experiment (paldia-experiments -csv).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", strings.ToUpper(t.ID), t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Plot != "" {
		fmt.Fprintf(&b, "\n```\n%s```\n", t.Plot)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*Note: %s*\n", n)
	}
	return b.String()
}

// aggregate is the per-scheme mean metrics over repetitions.
type aggregate struct {
	Compliance float64
	Cost       float64
	P99        time.Duration
	Power      float64
	UtilCPU    float64
	UtilGPU    float64
	Results    []core.Result // every repetition's scalars; Collector is nil (see cell.reduce)
}

// mutator tweaks the run config (failures, host factors, knobs).
type mutator func(cfg *core.Config)

// azureGen returns the standard Azure trace source for a model. Each call
// makes a new source: call it once per model and share the result between
// that model's cells.
func azureGen(o Options, m model.Spec) *source {
	return &source{realize: func(rng *sim.RNG) *trace.Trace {
		return trace.Azure(rng, m.DefaultPeakRPS(), o.dur(trace.AzureDuration))
	}}
}

// standardSchemes are the five evaluated schemes in plotting order.
func standardSchemes() []core.Scheme { return core.StandardSchemes() }

func pct(f float64) string     { return fmt.Sprintf("%.2f%%", f*100) }
func dollars(f float64) string { return fmt.Sprintf("$%.4f", f) }
func msec(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// attachGroupedBars adds a grouped-bar SVG figure to a table.
func attachGroupedBars(t *Table, name, title string, groups, series []string,
	values [][]float64, yMax float64, unit string) {
	g := &svgplot.GroupedBars{
		Title: title, Groups: groups, Series: series, Values: values,
		YMax: yMax, Unit: unit,
	}
	t.SVGs = append(t.SVGs, SVGFigure{Name: name, Render: g.Render})
}

// normalizeMax scales values so the maximum is 1.
func normalizeMax(values []float64) []float64 {
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	out := make([]float64, len(values))
	if max == 0 {
		return out
	}
	for i, v := range values {
		out[i] = v / max
	}
	return out
}
