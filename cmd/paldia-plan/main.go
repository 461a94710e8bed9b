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
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// maxWindowRequests caps Eq. (1)'s N, the requests that arrive within one
// SLO: costing a GPU node walks O(N / batch) splits, so an unbounded N would
// not finish.
const maxWindowRequests = 1 << 20

// run parses argv, prints the plan to stdout and returns the exit code: 0 on
// success, 1 for an unknown model, 2 for a flag parse error or a rate or SLO
// out of range, alone or together (rate × SLO past maxWindowRequests). Every
// number it prints comes from core.Plan.
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
	if *rate < 0 || math.IsNaN(*rate) || math.IsInf(*rate, 0) {
		fmt.Fprintf(stderr, "-rate %v: want a finite rate of 0 rps or more\n", *rate)
		return 2
	}
	if *slo <= 0 {
		fmt.Fprintf(stderr, "-slo %v: want a positive latency target\n", *slo)
		return 2
	}
	if n := *rate * slo.Seconds(); n > maxWindowRequests {
		fmt.Fprintf(stderr, "-rate %v with -slo %v: %.3g requests per SLO window (Eq. (1) N), want at most %d\n",
			*rate, *slo, n, maxWindowRequests)
		return 2
	}

	m, ok := model.ByName(*modelName)
	if !ok {
		fmt.Fprintf(stderr, "unknown model %q\n", *modelName)
		return 1
	}

	plan := core.Plan(m, *rate, *slo)
	fmt.Fprintf(stdout, "plan for %s at %.0f rps, SLO %v\n\n", m.Name, *rate, *slo)
	fmt.Fprintf(stdout, "%-12s %-11s %8s %6s %10s %9s %9s\n",
		"node", "device", "$/h", "batch", "T_max", "best y", "capable")
	for _, n := range plan.Nodes {
		hw := n.Entry.Hardware
		bestY, capable := "-", "no"
		if hw.IsGPU() {
			bestY = fmt.Sprint(n.BestY)
		}
		if n.Capable {
			capable = "yes"
		}
		fmt.Fprintf(stdout, "%-12s %-11s %8.2f %6d %10v %9s %9s\n",
			hw.Name, hw.Accel, hw.CostPerHour, n.Entry.PreferredBatch,
			n.TMax.Round(time.Millisecond), bestY, capable)
	}
	fmt.Fprintf(stdout, "\nchoose_best_HW: %s (%s) at $%.2f/h — cheapest within %v of the best T_max (%v)\n",
		plan.Pick.Name, plan.Pick.Accel, plan.Pick.CostPerHour, plan.Window, plan.Best.Round(time.Millisecond))
	return 0
}
