// Command paldia-experiments regenerates the paper's evaluation: every
// figure and table of Section VI, as text tables (or markdown with -md).
//
//	paldia-experiments                  # run everything at default scale
//	paldia-experiments -run fig3,fig4   # selected experiments
//	paldia-experiments -reps 5 -scale 1 # the paper's repetition count
//	paldia-experiments -scale 0.2       # quick pass (shorter traces)
//	paldia-experiments -j 1             # serial run (results are identical)
//
// With -j > 1 (default: one worker per CPU) every simulation cell — each
// (model, trace, scheme, repetition) point — fans out over a worker pool
// shared across experiments, and whole experiments execute concurrently.
// Results are collected indexed by cell and printed in registry order, so the
// output is byte-identical at every -j value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/predict"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses argv, prints the selected experiments' tables to stdout and
// returns the exit code: 0 on success, 1 for an unknown experiment or
// forecaster or a failed SVG/CSV write, 2 for a flag parse error. Timing and
// "wrote" lines go to stderr.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paldia-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runArg = fs.String("run", "all", "comma-separated experiment ids, or 'all' ("+
			strings.Join(experiments.IDs(), ", ")+")")
		reps   = fs.Int("reps", 3, "repetitions per data point (paper: 5)")
		scale  = fs.Float64("scale", 1, "trace duration scale (1 = paper scale)")
		seed   = fs.Uint64("seed", 42, "root random seed")
		md     = fs.Bool("md", false, "emit markdown instead of aligned text")
		svgDir = fs.String("svg", "", "also write each experiment's figures as SVG files into this directory")
		csvDir = fs.String("csv", "", "also write each experiment's table as a CSV file into this directory")
		jobs   = fs.Int("j", runtime.NumCPU(), "simulations to run concurrently (1 = serial; output is identical at any value)")
		fc     = fs.String("forecaster", "", "default rate forecaster for every simulation: "+
			strings.Join(predict.Names(), ", ")+" (empty = ewma; forecast-frontier sweeps its own)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if _, err := predict.NewByName(*fc, time.Second); err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 1
	}
	reg := experiments.Registry()
	var ids []string
	if *runArg == "all" {
		ids = experiments.Order()
	} else {
		for _, id := range strings.Split(*runArg, ",") {
			id = strings.TrimSpace(id)
			if _, ok := reg[id]; !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (known: %s)\n",
					id, strings.Join(experiments.IDs(), ", "))
				return 1
			}
			ids = append(ids, id)
		}
	}
	opts := experiments.Options{
		Seed: *seed, Reps: *reps, Scale: *scale, Parallelism: *jobs, Forecaster: *fc,
	}
	if *jobs > 1 {
		// One pool shared by every experiment bounds total concurrency even
		// when experiments themselves run concurrently below.
		opts.Pool = experiments.NewPool(*jobs)
	}

	// Experiments execute concurrently (their goroutines hold no pool tokens
	// — only leaf simulation cells acquire them, so sharing one pool cannot
	// deadlock), but tables buffer and print strictly in registry order.
	tables := make([]*experiments.Table, len(ids))
	elapsed := make([]time.Duration, len(ids))
	runOne := func(i int, id string) {
		start := time.Now()
		tables[i] = reg[id](opts)
		elapsed[i] = time.Since(start)
	}
	if *jobs > 1 {
		var wg sync.WaitGroup
		wg.Add(len(ids))
		for i, id := range ids {
			go func(i int, id string) {
				defer wg.Done()
				runOne(i, id)
			}(i, id)
		}
		wg.Wait()
	} else {
		for i, id := range ids {
			runOne(i, id)
		}
	}

	for i, id := range ids {
		t := tables[i]
		if *md {
			fmt.Fprintln(stdout, t.Markdown())
		} else {
			fmt.Fprintln(stdout, t.String())
		}
		if *svgDir != "" {
			if err := writeSVGs(*svgDir, t, stderr); err != nil {
				fmt.Fprintf(stderr, "svg: %v\n", err)
				return 1
			}
		}
		if *csvDir != "" {
			if err := writeTableCSV(*csvDir, t, stderr); err != nil {
				fmt.Fprintf(stderr, "csv: %v\n", err)
				return 1
			}
		}
		fmt.Fprintf(stderr, "[%s done in %v]\n", id, elapsed[i].Round(time.Millisecond))
	}
	return 0
}

func writeTableCSV(dir string, t *experiments.Table, stderr io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, t.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}

func writeSVGs(dir string, t *experiments.Table, stderr io.Writer) error {
	if len(t.SVGs) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, fig := range t.SVGs {
		f, err := os.Create(filepath.Join(dir, fig.Name+".svg"))
		if err != nil {
			return err
		}
		if err := fig.Render(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", filepath.Join(dir, fig.Name+".svg"))
	}
	return nil
}
