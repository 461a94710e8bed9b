package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/plot"
	"repro/internal/svgplot"
	"repro/internal/trace"
)

// Fig3 regenerates the primary SLO-compliance comparison: all 12 vision
// models x the five schemes under the Azure serverless trace.
func Fig3(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID:      "fig3",
		Title:   "SLO compliance of all schemes for all vision models (Azure trace)",
		Columns: []string{"model"},
	}
	schemes := standardSchemes()
	for _, s := range schemes {
		t.Columns = append(t.Columns, s.Name())
	}
	models := model.VisionModels()
	var cells []cell
	for _, m := range models {
		src := azureGen(o, m)
		for _, s := range schemes {
			cells = append(cells, cell{m: m, src: src, scheme: s})
		}
	}
	aggs := runCells(o, cells)
	sums := make([]float64, len(schemes))
	var groups []string
	var values [][]float64
	for mi, m := range models {
		row := []string{m.Name}
		vals := make([]float64, len(schemes))
		for i := range schemes {
			a := aggs[mi*len(schemes)+i]
			row = append(row, pct(a.Compliance))
			sums[i] += a.Compliance
			vals[i] = a.Compliance * 100
		}
		t.Rows = append(t.Rows, row)
		groups = append(groups, m.Name)
		values = append(values, vals)
	}
	bars := make([]plot.Bar, len(schemes))
	names := make([]string, len(schemes))
	for i, s := range schemes {
		bars[i] = plot.Bar{Label: s.Name(), Value: sums[i] / float64(len(t.Rows)) * 100}
		names[i] = s.Name()
	}
	t.Plot = plot.BarChart("mean SLO compliance across vision models", bars, 40, "%")
	attachGroupedBars(t, "fig3-slo-compliance",
		"SLO compliance, vision models (Azure trace)", groups, names, values, 100, "%")
	return t
}

// Fig4 regenerates the tail-latency breakdowns for ResNet 50 and VGG 19:
// minimum possible execution time, queueing delay (batching + device
// queueing), and interference overhead at P99.
func Fig4(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID:    "fig4",
		Title: "P99 latency breakdown (min possible / queueing / interference)",
		Columns: []string{"model", "scheme", "P99 total", "min possible",
			"queueing", "interference", "cold start", "SLO compliance"},
	}
	var cells []cell
	for _, name := range []string{"ResNet 50", "VGG 19"} {
		m := model.MustByName(name)
		src := azureGen(o, m)
		for _, s := range standardSchemes() {
			cells = append(cells, cell{m: m, src: src, scheme: s})
		}
	}
	// Breakdown from the first repetition's records (the paper plots one
	// representative run's P99 decomposition).
	bds := make([]metrics.Breakdown, len(cells))
	for ci := range cells {
		cells[ci].reduce = func(rep int, _ core.Config, col *metrics.Collector) {
			if rep == 0 {
				bds[ci] = col.TailBreakdown(99, 99.9)
			}
		}
	}
	for ci, a := range runCells(o, cells) {
		res := a.Results[0]
		b := bds[ci]
		t.Rows = append(t.Rows, []string{
			res.Model, res.Scheme,
			msec(b.Total), msec(b.MinExec),
			msec(b.QueueDelay + b.BatchWait),
			msec(b.Interference), msec(b.ColdStart),
			pct(a.Compliance),
		})
	}
	t.Notes = append(t.Notes,
		"queueing aggregates batching wait and device queueing (the paper folds both into queueing delay)")
	return t
}

// Fig5 regenerates normalized cost vs SLO compliance for a high-FBR model
// (DPN 92) and a low-FBR model (EfficientNet B0).
func Fig5(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID:      "fig5",
		Title:   "Normalized cost vs SLO compliance (DPN 92 high-FBR, EfficientNet B0 low-FBR)",
		Columns: []string{"model", "scheme", "normalized cost", "cost", "SLO compliance"},
	}
	schemes := standardSchemes()
	models := []model.Spec{model.MustByName("DPN 92"), model.MustByName("EfficientNet B0")}
	var cells []cell
	for _, m := range models {
		src := azureGen(o, m)
		for _, s := range schemes {
			cells = append(cells, cell{m: m, src: src, scheme: s})
		}
	}
	all := runCells(o, cells)
	for mi, m := range models {
		aggs := all[mi*len(schemes) : (mi+1)*len(schemes)]
		costs := make([]float64, len(aggs))
		for i, a := range aggs {
			costs[i] = a.Cost
		}
		norm := normalizeMax(costs)
		for i, s := range schemes {
			t.Rows = append(t.Rows, []string{
				m.Name, s.Name(),
				fmt.Sprintf("%.3f", norm[i]),
				dollars(aggs[i].Cost),
				pct(aggs[i].Compliance),
			})
		}
	}
	return t
}

// Fig6 regenerates the end-to-end latency CDF for SENet 18.
func Fig6(o Options) *Table {
	o = o.normalize()
	m := model.MustByName("SENet 18")
	t := &Table{
		ID:      "fig6",
		Title:   "CDF of end-to-end latency, SENet 18 (ms at percentile)",
		Columns: []string{"scheme", "P50", "P80", "P90", "P95", "P99", "SLO compliance"},
	}
	var names []string
	var curves [][]float64
	schemes := standardSchemes()
	// Percentiles and the CDF from the first repetition's records.
	type firstRep struct {
		pcts [5]time.Duration
		cdf  []metrics.CDFPoint
	}
	firsts := make([]firstRep, len(schemes))
	src := azureGen(o, m)
	var cells []cell
	for si, s := range schemes {
		cells = append(cells, cell{m: m, src: src, scheme: s,
			reduce: func(rep int, _ core.Config, col *metrics.Collector) {
				if rep != 0 {
					return
				}
				for i, p := range []float64{50, 80, 90, 95, 99} {
					firsts[si].pcts[i] = col.Percentile(p)
				}
				firsts[si].cdf = col.CDF(60)
			}})
	}
	aggs := runCells(o, cells)
	for si, s := range schemes {
		a := aggs[si]
		c := firsts[si]
		t.Rows = append(t.Rows, []string{
			s.Name(),
			msec(c.pcts[0]), msec(c.pcts[1]), msec(c.pcts[2]),
			msec(c.pcts[3]), msec(c.pcts[4]),
			pct(a.Compliance),
		})
		var vals []float64
		for _, p := range c.cdf {
			v := p.Latency.Seconds() * 1000
			if v > 400 {
				v = 400 // clip the axis at 2x SLO, like the paper's plot
			}
			vals = append(vals, v)
		}
		names = append(names, s.Name())
		curves = append(curves, vals)
	}
	t.Plot = plot.CDF("end-to-end latency CDF (ms, clipped at 400)", names, curves, 56, 12)
	var series []svgplot.LineSeries
	for i, vals := range curves {
		pts := make([][2]float64, len(vals))
		for j, v := range vals {
			pts[j] = [2]float64{v, float64(j+1) / float64(len(vals))}
		}
		series = append(series, svgplot.LineSeries{Name: names[i], Points: pts})
	}
	cdfFig := &svgplot.Lines{
		Title:  "End-to-end latency CDF, SENet 18",
		XLabel: "latency (ms)",
		YLabel: "fraction of requests",
		YMax:   1,
		Series: series,
	}
	t.SVGs = append(t.SVGs, SVGFigure{Name: "fig6-latency-cdf", Render: cdfFig.Render})
	t.Notes = append(t.Notes, "SLO is 200ms; the paper's CDF crossings map to the percentile columns")
	return t
}

// Fig7 regenerates (a) goodput during the peak-traffic periods for
// DenseNet 121 and (b) normalized average power for Simplified DLA.
func Fig7(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID:    "fig7",
		Title: "Goodput during peak traffic (DenseNet 121) and normalized power (Simplified DLA)",
		Columns: []string{"scheme", "peak arrival rps", "goodput rps", "goodput/arrival",
			"norm. power (DLA)"},
	}
	dense := model.MustByName("DenseNet 121")
	dla := model.MustByName("Simplified DLA")

	schemes := standardSchemes()
	// Goodput over the peak-traffic windows (the union of 1s windows whose
	// arrival rate exceeds half the trace peak), per DenseNet repetition.
	goodput := make([][2]float64, len(schemes)*o.Reps)
	denseSrc, dlaSrc := azureGen(o, dense), azureGen(o, dla)
	var cells []cell
	for si, s := range schemes {
		cells = append(cells, cell{m: dense, src: denseSrc, scheme: s,
			reduce: func(rep int, cfg core.Config, col *metrics.Collector) {
				g, a := peakGoodput(col, cfg.Trace)
				goodput[si*o.Reps+rep] = [2]float64{g, a}
			}})
	}
	for _, s := range schemes {
		cells = append(cells, cell{m: dla, src: dlaSrc, scheme: s})
	}
	aggs := runCells(o, cells)

	type row struct {
		goodput, arrival, power float64
	}
	rows := make([]row, len(schemes))
	for i := range schemes {
		var g, arr float64
		for _, ga := range goodput[i*o.Reps : (i+1)*o.Reps] {
			g += ga[0]
			arr += ga[1]
		}
		g /= float64(o.Reps)
		arr /= float64(o.Reps)

		p := aggs[len(schemes)+i]
		rows[i] = row{goodput: g, arrival: arr, power: p.Power}
	}
	powers := make([]float64, len(rows))
	for i, r := range rows {
		powers[i] = r.power
	}
	norm := normalizeMax(powers)
	for i, s := range schemes {
		t.Rows = append(t.Rows, []string{
			s.Name(),
			fmt.Sprintf("%.0f", rows[i].arrival),
			fmt.Sprintf("%.0f", rows[i].goodput),
			fmt.Sprintf("%.2f", rows[i].goodput/rows[i].arrival),
			fmt.Sprintf("%.2f", norm[i]),
		})
	}
	t.Notes = append(t.Notes,
		"goodput counted over the union of 1s windows whose arrival rate exceeds half the trace peak; ideal = arrival rate")
	return t
}

// peakGoodput computes goodput and arrival rate over the union of the
// trace's peak windows: every 1s window whose arrival rate exceeds half the
// trace peak.
func peakGoodput(c *metrics.Collector, tr *trace.Trace) (goodputRPS, arrivalRPS float64) {
	const win = time.Second
	rates := tr.RateCurve(win)
	peak := 0.0
	for _, r := range rates {
		if r > peak {
			peak = r
		}
	}
	hot := make([]bool, len(rates))
	hotSecs := 0.0
	for i, r := range rates {
		if r >= peak/2 {
			hot[i] = true
			hotSecs += win.Seconds()
		}
	}
	if hotSecs == 0 {
		return 0, 0
	}
	var ok, total int
	c.Each(func(rec metrics.Record) {
		i := int(rec.Arrival / win)
		if i >= len(hot) || !hot[i] {
			return
		}
		total++
		if !rec.Failed && rec.Latency <= c.SLO {
			ok++
		}
	})
	return float64(ok) / hotSecs, float64(total) / hotSecs
}

// Fig8 regenerates the CPU/GPU node utilization comparison for VGG 19.
func Fig8(o Options) *Table {
	o = o.normalize()
	m := model.MustByName("VGG 19")
	t := &Table{
		ID:      "fig8",
		Title:   "Compute node utilization (non-idle time), VGG 19",
		Columns: []string{"scheme", "CPU node util", "GPU node util"},
	}
	schemes := standardSchemes()
	src := azureGen(o, m)
	var cells []cell
	for _, s := range schemes {
		cells = append(cells, cell{m: m, src: src, scheme: s})
	}
	for i, a := range runCells(o, cells) {
		cpu := "n/a"
		if a.UtilCPU > 0 {
			cpu = pct(a.UtilCPU)
		}
		t.Rows = append(t.Rows, []string{schemes[i].Name(), cpu, pct(a.UtilGPU)})
	}
	t.Notes = append(t.Notes,
		"the (P) schemes never hold CPU nodes, so their CPU utilization is not applicable (as in the paper)")
	return t
}

// Fig11 compares Paldia against the clairvoyant Oracle on cost and SLO
// compliance for representative vision models.
func Fig11(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID:      "fig11",
		Title:   "Paldia vs Oracle: cost and SLO compliance",
		Columns: []string{"model", "scheme", "SLO compliance", "cost"},
	}
	var cells []cell
	for _, name := range []string{"ResNet 50", "DenseNet 121", "SENet 18", "EfficientNet B0"} {
		m := model.MustByName(name)
		src := azureGen(o, m)
		for _, s := range []core.Scheme{core.NewPaldia(), core.NewOracle()} {
			cells = append(cells, cell{m: m, src: src, scheme: s})
		}
	}
	for i, a := range runCells(o, cells) {
		c := cells[i]
		t.Rows = append(t.Rows, []string{c.m.Name, c.scheme.Name(), pct(a.Compliance), dollars(a.Cost)})
	}
	return t
}

// Table2 renders the hardware catalog (the paper's Table II).
func Table2() *Table {
	t := &Table{
		ID:    "table2",
		Title: "Worker node details (AWS EC2)",
		Columns: []string{"name", "primary compute hardware", "memory", "cost",
			"compute score", "mem BW GB/s"},
	}
	for _, hw := range hardware.Catalog() {
		bw := "-"
		if hw.IsGPU() {
			bw = fmt.Sprintf("%.0f", hw.MemBWGBps)
		}
		t.Rows = append(t.Rows, []string{
			hw.Name, hw.Accel, fmt.Sprintf("%.0f GB", hw.MemGB),
			fmt.Sprintf("$%.2f/h", hw.CostPerHour),
			fmt.Sprintf("%.1f", hw.ComputeScore), bw,
		})
	}
	return t
}
