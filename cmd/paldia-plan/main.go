// Command paldia-plan is a what-if capacity planner built on the profiling
// tables and Eq. (1): for a model, SLO and expected peak rate, it prints
// every node type's predicted worst-case latency, whether it qualifies for
// the capable pool, what the Hardware Selection module would pick, and what
// it would cost per hour — the offline version of Algorithm 1's decision.
//
//	paldia-plan -model "ResNet 50" -rate 450
//	paldia-plan -model BERT -rate 8 -slo 150ms
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/profile"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses argv, prints the plan to stdout and returns the exit code: 0 on
// success, 1 for an unknown model, 2 for a flag parse error.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paldia-plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelName = fs.String("model", "ResNet 50", "workload model")
		rate      = fs.Float64("rate", 450, "expected peak request rate (rps)")
		slo       = fs.Duration("slo", 200*time.Millisecond, "latency target")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	m, ok := model.ByName(*modelName)
	if !ok {
		fmt.Fprintf(stderr, "unknown model %q\n", *modelName)
		return 1
	}

	pool := profile.CapablePool(m, *rate, *slo)
	inPool := map[string]bool{}
	for _, hw := range pool {
		inPool[hw.Name] = true
	}

	fmt.Fprintf(stdout, "plan for %s at %.0f rps, SLO %v\n\n", m.Name, *rate, *slo)
	fmt.Fprintf(stdout, "%-12s %-11s %8s %6s %10s %9s %9s\n",
		"node", "device", "$/h", "batch", "T_max", "best y", "capable")

	type cand struct {
		hw   hardware.Spec
		tmax time.Duration
	}
	var cands []cand
	n := int(*rate * slo.Seconds())
	for _, hw := range hardware.Catalog() {
		e := profile.Lookup(m, hw)
		var tmax time.Duration
		bestY := "-"
		if hw.IsGPU() {
			in := perfmodel.Inputs{
				Solo: e.SoloBatch, BatchSize: e.PreferredBatch,
				FBR: e.FBR, ComputeFrac: e.ComputeFrac,
				N: n, SLO: *slo,
			}
			y, tm, _ := perfmodel.BestY(in)
			tmax = tm
			bestY = fmt.Sprint(y)
		} else {
			// One dispatch window's arrivals execute serially, as Hardware
			// Selection approximates it — at least one request, so low
			// rates are not planned as an empty window.
			b := e.EffectiveBatchAt(*rate, *slo/4)
			nWin := max(1, int(*rate*core.DefaultDispatchWindow.Seconds()))
			tmax = perfmodel.ApproxCPUTMax(e.SoloAt(b), b, nWin, 0)
		}
		capable := "no"
		if inPool[hw.Name] {
			capable = "yes"
			cands = append(cands, cand{hw, tmax})
		}
		fmt.Fprintf(stdout, "%-12s %-11s %8.2f %6d %10v %9s %9s\n",
			hw.Name, hw.Accel, hw.CostPerHour, e.PreferredBatch,
			tmax.Round(time.Millisecond), bestY, capable)
	}

	if len(cands) == 0 {
		fmt.Fprintln(stdout, "\nno capable node; the selection falls back to the most performant GPU")
		return 0
	}
	best := cands[0].tmax
	for _, c := range cands[1:] {
		if c.tmax < best {
			best = c.tmax
		}
	}
	for _, c := range cands {
		if c.tmax <= best+50*time.Millisecond {
			fmt.Fprintf(stdout, "\nchoose_best_HW: %s (%s) at $%.2f/h — cheapest within 50ms of the best T_max (%v)\n",
				c.hw.Name, c.hw.Accel, c.hw.CostPerHour, best.Round(time.Millisecond))
			return 0
		}
	}
	return 0
}
