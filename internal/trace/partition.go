package trace

import "fmt"

// Partition splits the curve into n per-tenant lane curves, each carrying
// 1/n of the arrival rate over the same duration. Lane names embed the lane
// index and lane count ("<name>#i.n"), so each lane realizes from its own
// independent RNG stream ("trace/<name>#i.n") — the decomposition is a pure
// function of (curve, n), never of how many workers later execute the lanes,
// which is what keeps sharded output byte-identical at any worker count.
//
// The union of the lanes is statistically the original curve (superposition
// of thinned Poisson processes), not sample-path identical to it: partitioned
// runs are a different — equally deterministic — experiment from the
// single-lane run, which is why the lane count is a workload knob (-tenants)
// and not the worker knob (-j).
func (c *Curve) Partition(n int) []*Curve {
	if n <= 1 {
		return []*Curve{c}
	}
	lanes := make([]*Curve, n)
	for i := range lanes {
		// Lanes share the parent's Rates slice (read-only) and carry the 1/n
		// thinning in Scale: a multi-day curve's rate array is tens of MiB,
		// and copying it per lane would multiply resident memory by n+1.
		lanes[i] = &Curve{
			Name:   fmt.Sprintf("%s#%d.%d", c.Name, i, n),
			Rates:  c.Rates,
			Bucket: c.Bucket,
			Scale:  c.scale() / float64(n),
		}
	}
	return lanes
}
