package trace

import (
	"flag"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// addSurgeReference is the unbounded surge step: it scans every bucket of
// the curve for each surge. addSurge must produce bit-identical rates.
func addSurgeReference(rates []float64, start, ramp, plateau, height float64) {
	for i := range rates {
		x := float64(i)
		var f float64
		switch {
		case x < start || x > start+2*ramp+plateau:
			continue
		case x < start+ramp:
			f = (x - start) / ramp
		case x < start+ramp+plateau:
			f = 1
		default:
			f = (start + 2*ramp + plateau - x) / ramp
		}
		rates[i] += height * f
	}
}

// TestAzureCurveMatchesReference pins the bounded surge loop to the
// unbounded reference: identical rates, bit for bit, for seeds 1-5 at 1, 5
// and 23 hours, and at 91 hours (the 10M-request grid's curve) unless
// -short. A go test -fuzz run also skips 91 hours: its coverage
// instrumentation slows the reference scan ~40x, to minutes per seed, and
// the plain test run covers that case.
func TestAzureCurveMatchesReference(t *testing.T) {
	durs := []time.Duration{time.Hour, 5 * time.Hour, 23 * time.Hour}
	if fuzz := flag.Lookup("test.fuzz"); !testing.Short() && (fuzz == nil || fuzz.Value.String() == "") {
		durs = append(durs, 91*time.Hour)
	}
	for _, dur := range durs {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", dur, seed), func(t *testing.T) {
				t.Parallel()
				got := AzureCurve(sim.NewRNG(seed), 450, dur)
				want := azureCurve(sim.NewRNG(seed), 450, dur, addSurgeReference)
				if got.Name != want.Name || len(got.Rates) != len(want.Rates) {
					t.Fatalf("curve %s with %d buckets, want %s with %d",
						got.Name, len(got.Rates), want.Name, len(want.Rates))
				}
				for i := range got.Rates {
					if math.Float64bits(got.Rates[i]) != math.Float64bits(want.Rates[i]) {
						t.Fatalf("bucket %d: rate %v, want %v", i, got.Rates[i], want.Rates[i])
					}
				}
			})
		}
	}
}
