package experiments

import (
	"fmt"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/mixedload"
	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fig9 regenerates the large-language-model SLO compliance comparison.
func Fig9(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID:      "fig9",
		Title:   "SLO compliance of all schemes for large language models (Azure trace, 8 rps peak)",
		Columns: []string{"model"},
	}
	for _, s := range standardSchemes() {
		t.Columns = append(t.Columns, s.Name())
	}
	var groups []string
	var values [][]float64
	names := schemeNames()
	schemes := standardSchemes()
	models := model.LanguageModels()
	var cells []cell
	for _, m := range models {
		src := azureGen(o, m)
		for _, s := range schemes {
			cells = append(cells, cell{m: m, src: src, scheme: s})
		}
	}
	aggs := runCells(o, cells)
	for mi, m := range models {
		row := []string{m.Name}
		vals := make([]float64, 0, len(names))
		for i := range schemes {
			a := aggs[mi*len(schemes)+i]
			row = append(row, pct(a.Compliance))
			vals = append(vals, a.Compliance*100)
		}
		t.Rows = append(t.Rows, row)
		groups = append(groups, m.Name)
		values = append(values, vals)
	}
	attachGroupedBars(t, "fig9-llm-slo-compliance",
		"SLO compliance, language models", groups, names, values, 100, "%")
	return t
}

// schemeNames returns the standard schemes' display names.
func schemeNames() []string {
	var names []string
	for _, s := range standardSchemes() {
		names = append(names, s.Name())
	}
	return names
}

// Fig10 regenerates the large-language-model cost comparison.
func Fig10(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID:      "fig10",
		Title:   "Cost of all schemes for large language models",
		Columns: []string{"model"},
	}
	for _, s := range standardSchemes() {
		t.Columns = append(t.Columns, s.Name())
	}
	var groups []string
	var values [][]float64
	schemes := standardSchemes()
	models := model.LanguageModels()
	var cells []cell
	for _, m := range models {
		src := azureGen(o, m)
		for _, s := range schemes {
			cells = append(cells, cell{m: m, src: src, scheme: s})
		}
	}
	aggs := runCells(o, cells)
	for mi, m := range models {
		row := []string{m.Name}
		var vals []float64
		for i := range schemes {
			a := aggs[mi*len(schemes)+i]
			row = append(row, dollars(a.Cost))
			vals = append(vals, a.Cost)
		}
		t.Rows = append(t.Rows, row)
		groups = append(groups, m.Name)
		values = append(values, vals)
	}
	attachGroupedBars(t, "fig10-llm-cost",
		"Cost (USD), language models", groups, schemeNames(), values, 0, "$")
	return t
}

// Fig12 regenerates the additional real-world-trace studies: the diurnal
// Wikipedia trace with ResNet 50 and the erratic, dense Twitter trace with
// DPN 92.
func Fig12(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID:      "fig12",
		Title:   "Cost vs SLO compliance under realistic traces",
		Columns: []string{"trace", "model", "scheme", "SLO compliance", "cost"},
	}

	resnet := model.MustByName("ResNet 50")
	wiki := &source{realize: func(rng *sim.RNG) *trace.Trace {
		return trace.Wikipedia(rng, 170, 5, trace.WikipediaCompression)
	}}
	dpn := model.MustByName("DPN 92")
	// The paper's Twitter sample has 5x the Azure trace's mean rate.
	azureMean := dpn.DefaultPeakRPS() * 55 / 673
	twitter := &source{realize: func(rng *sim.RNG) *trace.Trace {
		return trace.Twitter(rng, 5*azureMean, o.dur(trace.TwitterDuration))
	}}
	schemes := standardSchemes()
	var cells []cell
	for _, s := range schemes {
		cells = append(cells, cell{m: resnet, src: wiki, scheme: s})
	}
	for _, s := range schemes {
		cells = append(cells, cell{m: dpn, src: twitter, scheme: s})
	}
	aggs := runCells(o, cells)
	for i, s := range schemes {
		a := aggs[i]
		t.Rows = append(t.Rows, []string{
			"Wikipedia", resnet.Name, s.Name(), pct(a.Compliance), dollars(a.Cost)})
	}
	for i, s := range schemes {
		a := aggs[len(schemes)+i]
		t.Rows = append(t.Rows, []string{
			"Twitter", dpn.Name, s.Name(), pct(a.Compliance), dollars(a.Cost)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Wikipedia trace time-compressed %dx (5 days -> %v); rates preserved",
			trace.WikipediaCompression, 5*24*time.Hour/trace.WikipediaCompression))
	return t
}

// ExhaustionRate returns the arrival rate of the resource-exhaustion study:
// a fixed multiple of the most performant GPU's serial capacity for the
// workload. The paper pinned this at 700 rps against its V100; our V100 is
// calibrated faster, so the rate scales with measured capacity.
func ExhaustionRate(m model.Spec) float64 {
	v100 := hardware.MostPerformant(hardware.GPU)
	return 1.0 * profile.Lookup(m, v100).ThroughputRPS
}

// Fig13 regenerates the two adverse scenarios: resource exhaustion
// (GoogleNet under a Poisson flood at the V100's capacity) and induced node
// failures (DenseNet 121, one minute down every minute).
func Fig13(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID:      "fig13",
		Title:   "Adverse scenarios: resource exhaustion and node failures",
		Columns: []string{"scenario", "scheme", "SLO compliance", "cost"},
	}

	// (a) Resource exhaustion: every scheme resorts to the V100 (the paper:
	// "all schemes resort to using the V100 GPU ... thereby costing the
	// same"); only the sharing policy differs.
	google := model.MustByName("GoogleNet")
	v100 := hardware.MostPerformant(hardware.GPU)
	rate := ExhaustionRate(google)
	poisson := &source{realize: func(rng *sim.RNG) *trace.Trace {
		return trace.Poisson(rng, rate, o.dur(10*time.Minute))
	}}
	exhaustionSchemes := []core.Scheme{
		core.NewMoleculePerf(),
		core.NewINFlessLlamaPerf(),
		core.NewPaldiaPinned(v100),
	}

	// (b) Node failures: the serving node fails for a minute, every minute.
	dense := model.MustByName("DenseNet 121")
	failures := func(cfg *core.Config) {
		cfg.FailureEvery = time.Minute
		cfg.FailureDuration = time.Minute
	}

	var cells []cell
	for _, s := range exhaustionSchemes {
		cells = append(cells, cell{m: google, src: poisson, scheme: s})
	}
	failureSchemes := standardSchemes()
	denseSrc := azureGen(o, dense)
	for _, s := range failureSchemes {
		cells = append(cells, cell{m: dense, src: denseSrc, scheme: s, mut: failures})
	}
	aggs := runCells(o, cells)
	for i, s := range exhaustionSchemes {
		a := aggs[i]
		t.Rows = append(t.Rows, []string{
			"R. Exhaustion (GoogleNet)", s.Name(), pct(a.Compliance), dollars(a.Cost)})
	}
	for i, s := range failureSchemes {
		a := aggs[len(exhaustionSchemes)+i]
		t.Rows = append(t.Rows, []string{
			"Node failures (DenseNet 121)", s.Name(), pct(a.Compliance), dollars(a.Cost)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("exhaustion rate %.0f rps = 1.0x the calibrated V100 serial capacity "+
			"(the paper's 700 rps played the same role against its slower V100)", rate),
		"under failures every scheme switches to the more performant least-cost node, per the paper's setup")
	return t
}

// Table3 regenerates the mixed-workloads study: SeBS CPU-bound serverless
// functions co-resident on every worker node.
func Table3(o Options) *Table {
	o = o.normalize()
	m := model.MustByName("DenseNet 121")
	loads := mixedload.SeBS()
	mut := func(cfg *core.Config) {
		cfg.HostFactorCPU = mixedload.HostFactor(hardware.CPU, loads)
		cfg.HostFactorGPU = mixedload.HostFactor(hardware.GPU, loads)
	}
	t := &Table{
		ID:      "table3",
		Title:   "SLO compliance under co-resident 'regular' serverless workloads (SeBS)",
		Columns: []string{"scheme", "SLO compliance (mixed)", "SLO compliance (clean)"},
	}
	schemes := standardSchemes()
	src := azureGen(o, m)
	var cells []cell
	for _, s := range schemes {
		cells = append(cells, cell{m: m, src: src, scheme: s, mut: mut})
		cells = append(cells, cell{m: m, src: src, scheme: s})
	}
	aggs := runCells(o, cells)
	for i, s := range schemes {
		mixed, clean := aggs[2*i], aggs[2*i+1]
		t.Rows = append(t.Rows, []string{s.Name(), pct(mixed.Compliance), pct(clean.Compliance)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"host contention factors: CPU nodes x%.2f, GPU nodes x%.2f (file compression, dynamic HTML, thumbnailing)",
		mixedload.HostFactor(hardware.CPU, loads), mixedload.HostFactor(hardware.GPU, loads)))
	return t
}

// ColdStarts quantifies the delayed-termination claim (§IV-C): container
// boots with the 10-minute keep-alive versus immediate scale-down.
func ColdStarts(o Options) *Table {
	o = o.normalize()
	m := model.MustByName("ResNet 50")
	// Both policies run on one realized trace.
	tr := azureGen(o, m).realize(sim.NewRNG(o.Seed).Child("coldstarts"))
	run := func(keepAlive time.Duration) core.Result {
		return o.run(core.Config{
			Model:     m,
			Trace:     tr,
			Scheme:    core.NewPaldia(),
			KeepAlive: keepAlive,
		})
	}
	// KeepAlive < 0 is not meaningful; 1ns emulates immediate termination
	// while keeping config defaults from kicking in.
	keepAlives := []time.Duration{container.DefaultKeepAlive, time.Nanosecond}
	results := make([]core.Result, len(keepAlives))
	o.parRange(len(keepAlives), func(i int) { results[i] = run(keepAlives[i]) })
	with, without := results[0], results[1]
	reduction := 0.0
	if without.Boots > 0 {
		reduction = 1 - float64(with.Boots)/float64(without.Boots)
	}
	t := &Table{
		ID:      "coldstarts",
		Title:   "Cold starts: delayed termination (10 min keep-alive) vs immediate scale-down",
		Columns: []string{"policy", "container boots", "request-blocking cold starts", "SLO compliance"},
		Rows: [][]string{
			{"keep-alive 10 min", fmt.Sprint(with.Boots), fmt.Sprint(with.SyncColdStarts), pct(with.SLOCompliance)},
			{"terminate immediately", fmt.Sprint(without.Boots), fmt.Sprint(without.SyncColdStarts), pct(without.SLOCompliance)},
		},
		Notes: []string{fmt.Sprintf("cold-start reduction: %.0f%% (the paper reports up to 98%%)", reduction*100)},
	}
	return t
}

// CPUvsGPUCost reproduces the §II motivating claim: serving ResNet 50 at
// ~750 rps on m4.xlarge CPU nodes versus one g3s.xlarge GPU node.
func CPUvsGPUCost() *Table {
	m := model.MustByName("ResNet 50")
	m4, _ := hardware.ByName("m4.xlarge")
	g3s, _ := hardware.ByName("g3s.xlarge")
	target := 750.0
	per := profile.Lookup(m, m4).ThroughputRPS
	n := int(target/per) + 1
	cpuCost := float64(n) * m4.CostPerHour
	extra := (cpuCost - g3s.CostPerHour) / g3s.CostPerHour * 100
	return &Table{
		ID:      "cpugpu",
		Title:   "§II claim: ResNet 50 at ~750 rps, CPU fleet vs one GPU node",
		Columns: []string{"option", "nodes", "throughput rps", "cost $/h"},
		Rows: [][]string{
			{"m4.xlarge fleet", fmt.Sprint(n), fmt.Sprintf("%.0f", float64(n)*per), fmt.Sprintf("$%.2f", cpuCost)},
			{"g3s.xlarge (M60)", "1", fmt.Sprintf("%.0f", profile.Lookup(m, g3s).ThroughputRPS), fmt.Sprintf("$%.2f", g3s.CostPerHour)},
		},
		Notes: []string{fmt.Sprintf("CPU fleet costs %.0f%% more (paper: 86%%)", extra)},
	}
}
