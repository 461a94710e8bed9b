package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// AblationBatching measures the paper's flexible-batching claim (§IV-B):
// the hybrid scheduler needs batch sizes that follow the split, "something
// which uniform batching would hinder". Uniform batching waits for full
// preferred-size batches (flushing once the oldest request has burned a
// quarter of the SLO).
func AblationBatching(o Options) *Table {
	o = o.normalize()
	t := &Table{
		ID:      "ablation-batching",
		Title:   "Ablation: flexible vs uniform batching (Paldia, Azure trace)",
		Columns: []string{"model", "SLO", "batching", "SLO compliance", "P50", "P99"},
	}
	type variant struct {
		m     model.Spec
		slo   time.Duration
		label string
	}
	var cells []cell
	var variants []variant
	for _, name := range []string{"ResNet 50", "VGG 19"} {
		m := model.MustByName(name)
		src := azureGen(o, m)
		for _, slo := range []time.Duration{200 * time.Millisecond, 120 * time.Millisecond} {
			for _, c := range []struct {
				label   string
				uniform bool
			}{
				{"flexible (paper)", false},
				{"uniform (full batches)", true},
			} {
				slo, uniform := slo, c.uniform
				mut := func(cfg *core.Config) {
					cfg.UniformBatching = uniform
					cfg.SLO = slo
				}
				cells = append(cells, cell{m: m, src: src, scheme: core.NewPaldia(), mut: mut})
				variants = append(variants, variant{m: m, slo: slo, label: c.label})
			}
		}
	}
	for i, a := range runCells(o, cells) {
		v := variants[i]
		p50 := time.Duration(0)
		if len(a.Results) > 0 {
			p50 = a.Results[0].P50
		}
		t.Rows = append(t.Rows, []string{
			v.m.Name, v.slo.String(), v.label, pct(a.Compliance), msec(p50), msec(a.P99),
		})
	}
	t.Notes = append(t.Notes,
		"uniform batching spends up to SLO/4 of every request's budget waiting for the batch "+
			"to fill; at the paper's 200 ms target that slack exists, at tighter targets it does not")
	return t
}

// AblationSLO sweeps the latency target: the paper fixes 200 ms everywhere;
// this shows where each scheme's compliance collapses as the target
// tightens.
func AblationSLO(o Options) *Table {
	o = o.normalize()
	m := model.MustByName("ResNet 50")
	t := &Table{
		ID:      "ablation-slo",
		Title:   "Ablation: SLO sensitivity (ResNet 50, Azure trace)",
		Columns: []string{"SLO", "Paldia", "Molecule (beta) ($)", "INFless/Llama (P)"},
	}
	schemes := []core.Scheme{
		core.NewPaldia(), core.NewMoleculeCost(), core.NewINFlessLlamaPerf(),
	}
	slos := []time.Duration{100 * time.Millisecond, 150 * time.Millisecond,
		200 * time.Millisecond, 300 * time.Millisecond}
	src := azureGen(o, m)
	var cells []cell
	for _, slo := range slos {
		slo := slo
		mut := func(cfg *core.Config) { cfg.SLO = slo }
		for _, s := range schemes {
			cells = append(cells, cell{m: m, src: src, scheme: s, mut: mut})
		}
	}
	aggs := runCells(o, cells)
	for si, slo := range slos {
		row := []string{fmt.Sprint(slo)}
		for i := range schemes {
			row = append(row, pct(aggs[si*len(schemes)+i].Compliance))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "the paper evaluates at 200 ms; tighter targets squeeze "+
		"the slack the hybrid trades in")
	return t
}
