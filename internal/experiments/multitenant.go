package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MultiTenant goes beyond the paper's per-model runs: three vision models
// co-served on one shared node at a time, the deployment reality behind the
// motivation experiment, through the full runtime. Naive hardware selection
// underestimates aggregate pressure (per-tenant batching overhead and
// cross-model interference), so the gap between the schemes widens.
func MultiTenant(o Options) *Table {
	o = o.normalize()
	dur := o.dur(15 * time.Minute)
	mkWorkloads := func(rng *sim.RNG) []core.Workload {
		return []core.Workload{
			{Model: model.MustByName("SENet 18"), Trace: trace.Stable(rng.Child("senet"), 400, dur)},
			{Model: model.MustByName("DenseNet 121"), Trace: trace.Stable(rng.Child("dense"), 100, dur)},
			{Model: model.MustByName("MobileNet"), Trace: trace.Stable(rng.Child("mobile"), 150, dur)},
		}
	}

	t := &Table{
		ID:    "multitenant",
		Title: "Multi-tenant co-serving: SENet 18 + DenseNet 121 + MobileNet on one shared node",
		Columns: []string{"scheme", "combined SLO compliance", "SENet 18", "DenseNet 121",
			"MobileNet", "cost"},
	}
	schemes := standardSchemes()
	// Each run is reduced on its worker to the numbers the table shows, so
	// no tenant's Collector outlives its run.
	type reduced struct {
		combined, cost float64
		per            []float64
	}
	results := make([]reduced, len(schemes)*o.Reps)
	// Runs start in (rep, scheme) order: a repetition's tenant traces are
	// realized once, shared by the five schemes and dropped after the last.
	inputs := make([]shared[[]core.Workload], o.Reps)
	for rep := range inputs {
		inputs[rep].left.Store(int32(len(schemes)))
	}
	o.parRange(len(results), func(i int) {
		rep, si := i/len(schemes), i%len(schemes)
		in := &inputs[rep]
		ws := in.get(func() []core.Workload {
			return mkWorkloads(sim.NewRNG(o.Seed).Child(fmt.Sprintf("mt-rep-%d", rep)))
		})
		res := o.runMulti(core.MultiConfig{Workloads: ws, Scheme: schemes[si]})
		in.done()
		r := reduced{combined: res.SLOCompliance, cost: res.Cost}
		for _, c := range res.PerWorkload {
			r.per = append(r.per, c.SLOCompliance())
		}
		results[si*o.Reps+rep] = r
	})
	for si, s := range schemes {
		var combined, cost []float64
		per := make([][]float64, 3)
		for rep := 0; rep < o.Reps; rep++ {
			res := results[si*o.Reps+rep]
			combined = append(combined, res.combined)
			cost = append(cost, res.cost)
			for i, c := range res.per {
				per[i] = append(per[i], c)
			}
		}
		row := []string{s.Name(), pct(metrics.MeanDropOutliers(combined, 2.5))}
		for i := range per {
			row = append(row, pct(metrics.MeanDropOutliers(per[i], 2.5)))
		}
		row = append(row, dollars(metrics.MeanDropOutliers(cost, 2.5)))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"beyond the paper: combined ~650 rps of mixed models; per-tenant batchers, predictors and splits on a shared device")
	return t
}
