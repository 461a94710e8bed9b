// Command paldia-analyze post-processes paldia-sim exports: a per-request
// CSV dump (`-csv`), per-request telemetry spans (`-spans-out` JSONL), or
// sampled time series (`-series-out` CSV). For record CSVs it prints SLO
// compliance, percentiles, the P99 component breakdown and a terminal CDF;
// for spans a latency-component breakdown with the slowest requests; for
// series a per-series summary and optionally an SVG timeline.
//
//	paldia-sim -model "VGG 19" -scheme molecule-cost -csv run.csv
//	paldia-analyze run.csv
//	paldia-analyze -slo 150ms -svg cdf.svg run.csv
//	paldia-analyze -spans spans.jsonl
//	paldia-analyze -series series.csv -timeline-svg timeline.svg
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/svgplot"
	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses argv, prints the analyses to stdout and returns the exit code:
// 0 on success, 1 for a missing or corrupt input (or no input), 2 for a
// flag parse error.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paldia-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		slo         = fs.Duration("slo", 200*time.Millisecond, "SLO used to (re)judge requests")
		svgOut      = fs.String("svg", "", "write the latency CDF as an SVG to this path")
		spansPath   = fs.String("spans", "", "analyze a spans JSONL file (paldia-sim -spans-out)")
		seriesPath  = fs.String("series", "", "analyze a series CSV file (paldia-sim -series-out)")
		timelineSVG = fs.String("timeline-svg", "", "with -series, render the series as an SVG chart")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *spansPath != "" {
		if err := analyzeSpans(stdout, *spansPath, *slo); err != nil {
			return fail(err)
		}
	}
	if *seriesPath != "" {
		if err := analyzeSeries(stdout, stderr, *seriesPath, *timelineSVG); err != nil {
			return fail(err)
		}
	}
	if fs.NArg() != 1 {
		if *spansPath != "" || *seriesPath != "" {
			return 0
		}
		fmt.Fprintln(stderr, "usage: paldia-analyze [-slo D] [-svg out.svg] records.csv")
		fmt.Fprintln(stderr, "       paldia-analyze -spans spans.jsonl")
		fmt.Fprintln(stderr, "       paldia-analyze -series series.csv [-timeline-svg out.svg]")
		return 1
	}
	if err := analyzeRecords(stdout, stderr, fs.Arg(0), *slo, *svgOut); err != nil {
		return fail(err)
	}
	return 0
}

// analyzeRecords prints compliance, percentiles, the P99 component
// breakdown and a terminal CDF of a per-request records CSV, and with svgOut
// renders the CDF as an SVG.
func analyzeRecords(stdout, stderr io.Writer, path string, slo time.Duration, svgOut string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	col, err := metrics.ReadCSV(f, slo)
	if err != nil {
		return err
	}
	if col.Count() == 0 {
		return errors.New("no records")
	}

	fmt.Fprintf(stdout, "records         %d\n", col.Count())
	fmt.Fprintf(stdout, "SLO compliance  %.2f%% (SLO %v, %d violations)\n",
		col.SLOCompliance()*100, slo, col.Violations())
	fmt.Fprintf(stdout, "latency         P50 %v  P80 %v  P95 %v  P99 %v  mean %v\n",
		col.Percentile(50).Round(time.Microsecond),
		col.Percentile(80).Round(time.Microsecond),
		col.Percentile(95).Round(time.Microsecond),
		col.Percentile(99).Round(time.Microsecond),
		col.Mean().Round(time.Microsecond))
	b := col.TailBreakdown(99, 99.9)
	fmt.Fprintf(stdout, "P99 breakdown   min %v | batch %v | queue %v | interf %v | cold %v\n\n",
		b.MinExec.Round(time.Microsecond), b.BatchWait.Round(time.Microsecond),
		b.QueueDelay.Round(time.Microsecond), b.Interference.Round(time.Microsecond),
		b.ColdStart.Round(time.Microsecond))

	var vals []float64
	for _, p := range col.CDF(60) {
		v := p.Latency.Seconds() * 1000
		if v > 2*slo.Seconds()*1000 {
			v = 2 * slo.Seconds() * 1000
		}
		vals = append(vals, v)
	}
	fmt.Fprint(stdout, plot.CDF(fmt.Sprintf("latency CDF (ms, clipped at 2xSLO=%v)", 2*slo),
		[]string{"latency"}, [][]float64{vals}, 56, 12))

	if svgOut == "" {
		return nil
	}
	pts := make([][2]float64, len(vals))
	for i, v := range vals {
		pts[i] = [2]float64{v, float64(i+1) / float64(len(vals))}
	}
	fig := &svgplot.Lines{
		Title:  "End-to-end latency CDF",
		XLabel: "latency (ms)", YLabel: "fraction", YMax: 1,
		Series: []svgplot.LineSeries{{Name: "latency", Points: pts}},
	}
	if err := writeFile(svgOut, fig.Render); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", svgOut)
	return nil
}

// writeFile creates path and writes it with fn, reporting the first error.
func writeFile(path string, fn func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// analyzeSpans prints the latency-component breakdown of a spans JSONL
// export: where completed requests spent their time (batcher, container
// wait, device queue, execution) and the slowest individual requests.
func analyzeSpans(stdout io.Writer, path string, slo time.Duration) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := telemetry.ReadSpansJSONL(f)
	if err != nil {
		return err
	}
	var done []*telemetry.Span
	failed := 0
	for _, s := range spans {
		if s.Failed {
			failed++
		}
		if s.Done() && !s.Failed {
			done = append(done, s)
		}
	}
	fmt.Fprintf(stdout, "spans           %d (%d completed ok, %d failed)\n", len(spans), len(done), failed)
	if len(done) == 0 {
		return nil
	}
	comp := func(name string, get func(*telemetry.Span) time.Duration) {
		vals := make([]time.Duration, len(done))
		var sum time.Duration
		for i, s := range done {
			vals[i] = get(s)
			sum += vals[i]
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		pct := func(p float64) time.Duration {
			i := int(p / 100 * float64(len(vals)-1))
			return vals[i]
		}
		fmt.Fprintf(stdout, "  %-12s mean %10v   P50 %10v   P99 %10v\n", name,
			(sum / time.Duration(len(done))).Round(time.Microsecond),
			pct(50).Round(time.Microsecond), pct(99).Round(time.Microsecond))
	}
	comp("batch wait", (*telemetry.Span).BatchWait)
	comp("cold start", (*telemetry.Span).ColdStart)
	comp("queue", (*telemetry.Span).QueueDelay)
	comp("exec", (*telemetry.Span).Exec)
	comp("latency", (*telemetry.Span).Latency)

	viol := 0
	for _, s := range done {
		if s.Latency() > slo {
			viol++
		}
	}
	fmt.Fprintf(stdout, "  SLO %v: %d/%d over (%.2f%% compliant)\n\n", slo, viol, len(done),
		100*(1-float64(viol)/float64(len(done))))

	slowest := append([]*telemetry.Span(nil), done...)
	sort.Slice(slowest, func(i, j int) bool { return slowest[i].Latency() > slowest[j].Latency() })
	n := 5
	if n > len(slowest) {
		n = len(slowest)
	}
	fmt.Fprintln(stdout, "  slowest requests:")
	for _, s := range slowest[:n] {
		fmt.Fprintf(stdout, "    req %-6d t=%-10v latency %10v = batch %v + cold %v + queue %v + exec %v  (%s batch=%d node=%d %s)\n",
			s.Req, s.Arrived.Round(time.Millisecond), s.Latency().Round(time.Microsecond),
			s.BatchWait().Round(time.Microsecond), s.ColdStart().Round(time.Microsecond),
			s.QueueDelay().Round(time.Microsecond), s.Exec().Round(time.Microsecond),
			s.Mode, s.BatchSize, s.Node, s.Spec)
	}
	fmt.Fprintln(stdout)
	return nil
}

// analyzeSeries prints a summary of every sampled series and optionally
// renders the set as an SVG timeline.
func analyzeSeries(stdout, stderr io.Writer, path, svgOut string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ss, err := telemetry.ReadSeriesCSV(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "series          %d\n", ss.Len())
	for _, name := range ss.Names() {
		s := ss.Get(name)
		min, max, sum := 0.0, 0.0, 0.0
		for i, p := range s.Points {
			if i == 0 || p.Value < min {
				min = p.Value
			}
			if i == 0 || p.Value > max {
				max = p.Value
			}
			sum += p.Value
		}
		mean := 0.0
		if len(s.Points) > 0 {
			mean = sum / float64(len(s.Points))
		}
		fmt.Fprintf(stdout, "  %-18s %5d samples   min %10.4g   mean %10.4g   max %10.4g   last %10.4g\n",
			name, len(s.Points), min, mean, max, s.Last().Value)
	}
	fmt.Fprintln(stdout)
	if svgOut == "" {
		return nil
	}
	if err := writeFile(svgOut, func(w io.Writer) error {
		return ss.TimelineSVG(w, "sampled runtime series")
	}); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", svgOut)
	return nil
}
