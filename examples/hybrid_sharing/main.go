// Hybrid sharing (Insight 2): on a fixed GPU at its capacity limit, sweep
// the fraction of requests that are time-shared (queued) versus spatially
// shared (MPS) and watch the tradeoff the paper's Eq. (1) navigates —
// all-spatial suffers co-location interference, all-queued suffers queueing
// delay, and the sweet spot sits in between. This is the Offline Hybrid of
// the paper's motivation study, driven through the public API.
package main

import (
	"fmt"
	"strings"
	"time"

	"repro/paldia"
)

func main() {
	// The cost-effective M60 is where the tradeoff bites: ResNet 50's
	// bandwidth demand (FBR ~0.6) makes co-location expensive there, while
	// queueing at near-capacity load is expensive everywhere.
	m := paldia.MustModel("ResNet 50")
	m60, _ := paldia.HardwareByName("M60")

	// A Poisson flood at roughly the M60's serial capacity for ResNet 50.
	const rate = 650
	tr := paldia.PoissonTrace(7, rate, 5*time.Minute)

	fmt.Printf("ResNet 50 on %s at %d rps (serial capacity regime)\n\n", m60.Accel, int(rate))
	fmt.Printf("%-16s %14s %12s\n", "queued fraction", "SLO compliance", "P99")
	best, bestCompl := 0.0, -1.0
	for f := 0.0; f <= 1.001; f += 0.25 {
		res := paldia.Run(paldia.Config{
			Model:  m,
			Trace:  tr,
			Scheme: paldia.NewOfflineHybrid(m60, f),
		})
		bar := strings.Repeat("#", int(res.SLOCompliance*30))
		fmt.Printf("%-16.2f %13.2f%% %12v %s\n",
			f, res.SLOCompliance*100, res.P99.Round(time.Millisecond), bar)
		if res.SLOCompliance > bestCompl {
			bestCompl, best = res.SLOCompliance, f
		}
	}

	res := paldia.Run(paldia.Config{
		Model:  m,
		Trace:  tr,
		Scheme: paldia.NewPaldiaPinned(m60),
	})
	fmt.Printf("\nbest fixed fraction: %.2f (%.2f%%)\n", best, bestCompl*100)
	fmt.Printf("Paldia's online Eq.(1) split: %.2f%% — no offline sweep needed.\n",
		res.SLOCompliance*100)
}
