// Command paldia-profile dumps the profiling campaign the Hardware Selection
// module relies on: for every (model, node) pair, the solo batch latency,
// Fractional Bandwidth Requirement, configured batch size, sustained
// throughput, compute occupancy and memory-bounded co-location cap.
//
//	paldia-profile                      # full table
//	paldia-profile -model "ResNet 50"   # one model
//	paldia-profile -hw V100             # one node type
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/profile"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses argv, prints the table to stdout and returns the exit code: 0
// on success, 1 for an unknown model or node, 2 for a flag parse error.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paldia-profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelName = fs.String("model", "", "restrict to one model")
		hwName    = fs.String("hw", "", "restrict to one node (instance or accelerator name)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	models := model.Catalog()
	if *modelName != "" {
		m, ok := model.ByName(*modelName)
		if !ok {
			fmt.Fprintf(stderr, "unknown model %q\n", *modelName)
			return 1
		}
		models = []model.Spec{m}
	}
	nodes := hardware.Catalog()
	if *hwName != "" {
		hw, ok := hardware.ByName(*hwName)
		if !ok {
			fmt.Fprintf(stderr, "unknown hardware %q\n", *hwName)
			return 1
		}
		nodes = []hardware.Spec{hw}
	}

	fmt.Fprintf(stdout, "%-20s %-12s %6s %10s %7s %8s %9s %7s\n",
		"model", "node", "batch", "solo", "FBR", "thruput", "compute", "max-res")
	for _, m := range models {
		for _, hw := range nodes {
			e := profile.Lookup(m, hw)
			fbr := "-"
			comp := "-"
			if hw.IsGPU() {
				fbr = fmt.Sprintf("%.2f", e.FBR)
				comp = fmt.Sprintf("%.2f", e.ComputeFrac)
			}
			fmt.Fprintf(stdout, "%-20s %-12s %6d %10s %7s %7.0f/s %9s %7d\n",
				m.Name, hw.Accel, e.PreferredBatch,
				e.SoloBatch.Round(100000).String(), fbr,
				e.ThroughputRPS, comp, e.MaxResidentJobs)
		}
	}
	return 0
}
