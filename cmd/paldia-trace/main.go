// Command paldia-trace generates and inspects the synthetic request traces
// used across the experiments: arrival statistics, a coarse rate curve, and
// optionally the raw arrival offsets.
//
//	paldia-trace -trace azure -peak 450
//	paldia-trace -trace twitter -mean 92 -curve 10s
//	paldia-trace -trace wikipedia -peak 170 -dump | head
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/plot"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		name     = flag.String("trace", "azure", "azure, wikipedia, twitter, poisson, stable")
		peak     = flag.Float64("peak", 450, "peak rps (azure, wikipedia, poisson)")
		mean     = flag.Float64("mean", 92, "mean rps (twitter, stable)")
		duration = flag.Duration("duration", 0, "duration (0 = trace default)")
		seed     = flag.Uint64("seed", 42, "random seed")
		curve    = flag.Duration("curve", 30*time.Second, "rate-curve bucket (0 disables)")
		dump     = flag.Bool("dump", false, "print raw arrival offsets, one per line")
	)
	flag.Parse()

	rate := *peak
	if *name == "twitter" || *name == "stable" {
		rate = *mean
	}
	rng := sim.NewRNG(*seed)
	c, err := trace.NamedCurve(rng, *name, rate, *duration)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tr := c.Realize(rng)

	if *dump {
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		for _, a := range tr.Arrivals {
			fmt.Fprintf(w, "%.6f\n", a.Seconds())
		}
		return
	}

	fmt.Printf("trace     %s\n", tr.Name)
	fmt.Printf("duration  %v\n", tr.Duration)
	fmt.Printf("requests  %d\n", tr.Count())
	fmt.Printf("mean      %.1f rps\n", tr.MeanRPS())
	fmt.Printf("peak (1s) %.1f rps\n", tr.PeakRPS(time.Second))
	fmt.Printf("peak:mean %.1f\n", tr.PeakRPS(time.Second)/tr.MeanRPS())
	fmt.Printf("rate CV   %.2f (10s windows)\n", tr.RateCV(10*time.Second))
	fmt.Printf("shape     %s\n", plot.Sparkline(tr.RateCurve(tr.Duration/60)))
	bursts := tr.Bursts(time.Second, 0.5)
	fmt.Printf("bursts    %d above half-peak, carrying %.0f%% of requests\n",
		len(bursts), tr.BurstLoadShare(time.Second, 0.5)*100)
	for i, b := range bursts {
		if i >= 10 {
			fmt.Printf("          ... and %d more\n", len(bursts)-10)
			break
		}
		fmt.Printf("          burst %d: t=%v, %v long, peak %.0f rps, %d requests\n",
			i+1, b.Start, b.Duration, b.PeakRPS, b.Requests)
	}

	if *curve > 0 {
		fmt.Printf("\nrate curve (%v buckets):\n", *curve)
		rates := tr.RateCurve(*curve)
		maxr := 0.0
		for _, r := range rates {
			if r > maxr {
				maxr = r
			}
		}
		for i, r := range rates {
			bar := ""
			if maxr > 0 {
				bar = strings.Repeat("#", int(r/maxr*60))
			}
			fmt.Printf("%8v %7.1f %s\n", time.Duration(i)*(*curve), r, bar)
		}
	}
}
