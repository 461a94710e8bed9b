package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Cloning-frontier study parameters: a revocation-heavy spot environment.
// Every scheme — the plain Paldia baseline included — runs entirely on spot
// capacity at the same discount, with a revocation landing every
// cloningRevokeEvery, so the study isolates what redundancy buys: the plain
// path rides out each revocation behind one draining node and a slow
// failover, while clone-to-k and hedged dispatch keep a second pool serving.
const (
	cloningSpotDiscount = 0.65
	cloningSpotFraction = 1.0
	cloningRevokeEvery  = 45 * time.Second
	cloningRevokeNotice = 2 * time.Second
)

// cloningSchemes are the swept schemes in plotting order: the split-dispatch
// baseline, clone-to-k (k=2,3), the synchronized-service cloning variant of
// arXiv 2002.04416, and hedged dispatch at two trigger percentiles.
func cloningSchemes() []core.Scheme {
	return []core.Scheme{
		core.NewPaldia(),
		core.NewPaldiaCloneK(2, false),
		core.NewPaldiaCloneK(3, false),
		core.NewPaldiaCloneK(2, true),
		core.NewPaldiaHedged(90),
		core.NewPaldiaHedged(95),
	}
}

// CloningFrontier sweeps redundant dispatch — clone-to-k racing with
// cancel-on-first-complete, the synchronized-service variant, and hedged
// backup requests — against plain Eq. (1) splitting, on the diurnal
// Wikipedia trace and the erratic Twitter trace, all under spot capacity
// with periodic revocation. The frontier it draws: how much tail latency
// and failure masking each redundancy level buys, at what cost multiple.
func CloningFrontier(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID:    "cloning-frontier",
		Title: "Redundant dispatch vs Eq. (1) splitting under spot revocation",
		Columns: []string{"trace", "model", "scheme",
			"SLO compliance", "failed", "cost", "P99"},
	}

	resnet := model.MustByName("ResNet 50")
	wikiDays := int(float64(forecastWikiDays)*o.Scale + 0.5)
	if wikiDays < 1 {
		wikiDays = 1
	}
	wiki := &source{realize: func(rng *sim.RNG) *trace.Trace {
		return trace.Wikipedia(rng, forecastWikiPeakRPS, wikiDays, forecastWikiCompression)
	}}
	dpn := model.MustByName("DPN 92")
	azureMean := dpn.DefaultPeakRPS() * 55 / 673
	twitter := &source{realize: func(rng *sim.RNG) *trace.Trace {
		return trace.Twitter(rng, 5*azureMean, o.dur(trace.TwitterDuration))
	}}

	studies := []struct {
		label string
		m     model.Spec
		src   *source
	}{
		{"Wikipedia", resnet, wiki},
		{"Twitter", dpn, twitter},
	}
	schemes := cloningSchemes()
	spot := func(cfg *core.Config) {
		cfg.SpotDiscount = cloningSpotDiscount
		cfg.SpotFraction = cloningSpotFraction
		cfg.RevokeEvery = cloningRevokeEvery
		cfg.RevokeNotice = cloningRevokeNotice
	}

	var cells []cell
	for _, s := range studies {
		for _, sch := range schemes {
			cells = append(cells, cell{m: s.m, src: s.src, scheme: sch, mut: spot})
		}
	}
	aggs := runCells(o, cells)

	var groups, names []string
	for _, sch := range schemes {
		names = append(names, sch.Name())
	}
	var p99s, costs [][]float64
	for si, s := range studies {
		groups = append(groups, s.label)
		var pvals, dvals []float64
		for ni, sch := range schemes {
			a := aggs[si*len(schemes)+ni]
			failed := 0.0
			for _, res := range a.Results {
				if res.Requests > 0 {
					failed += float64(res.FailedRequests) / float64(res.Requests)
				}
			}
			failed /= float64(len(a.Results))
			t.Rows = append(t.Rows, []string{
				s.label, s.m.Name, sch.Name(),
				pct(a.Compliance), pct(failed), dollars(a.Cost), msec(a.P99),
			})
			pvals = append(pvals, float64(a.P99)/float64(time.Millisecond))
			dvals = append(dvals, a.Cost)
		}
		p99s = append(p99s, pvals)
		costs = append(costs, dvals)
	}

	attachGroupedBars(t, "cloning-frontier-p99",
		"P99 latency (ms) under spot revocation", groups, names, p99s, 0, "ms")
	attachGroupedBars(t, "cloning-frontier-cost",
		"Cost (USD) by redundancy level", groups, names, costs, 0, "$")
	t.Notes = append(t.Notes,
		fmt.Sprintf("every scheme runs fully on spot capacity (discount %.0f%%) with a revocation every %v "+
			"and %v notice; the baseline and the redundant schemes face the identical revocation sequence",
			cloningSpotDiscount*100, cloningRevokeEvery, cloningRevokeNotice),
		"clone-k places k copies of each batch on k distinct GPU pools and cancels the losers when the "+
			"first completes; the (sync) variant completes only when every copy finishes (arXiv 2002.04416)",
		"hedge-p launches a backup copy once a request's age crosses the online p-th completion-latency "+
			"percentile, so backups spawn only for stragglers — revocation victims included")
	return t
}
