package experiments

import "sort"

// Runner regenerates one experiment.
type Runner func(Options) *Table

// experiment pairs an ID with its runner.
type experiment struct {
	id  string
	run Runner
}

// list is every experiment, in the paper's presentation order: its figures
// and tables, then the studies and ablations beyond the paper.
var list = []experiment{
	{"fig1", Fig1},
	{"table2", func(Options) *Table { return Table2() }},
	{"fig3", Fig3},
	{"fig4", Fig4},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"table3", Table3},
	{"coldstarts", ColdStarts},
	{"cpugpu", func(Options) *Table { return CPUvsGPUCost() }},
	{"modelerror", ModelError},
	{"multitenant", MultiTenant},
	{"scaleout", ScaleOut},
	{"ablation-prediction", AblationPrediction},
	{"ablation-hybrid", AblationHybrid},
	{"ablation-waitlimit", AblationWaitLimit},
	{"ablation-keepalive", AblationKeepAlive},
	{"ablation-window", AblationDispatchWindow},
	{"ablation-batching", AblationBatching},
	{"ablation-slo", AblationSLO},
	{"forecast-frontier", ForecastFrontier},
	{"cloning-frontier", CloningFrontier},
}

// Registry maps experiment IDs to their runners, in the paper's order via
// Order().
func Registry() map[string]Runner {
	reg := make(map[string]Runner, len(list))
	for _, e := range list {
		reg[e.id] = e.run
	}
	return reg
}

// Order returns the experiment IDs in the paper's presentation order.
func Order() []string {
	ids := make([]string, len(list))
	for i, e := range list {
		ids[i] = e.id
	}
	return ids
}

// IDs returns all experiment IDs, sorted (for flag validation messages).
func IDs() []string {
	ids := Order()
	sort.Strings(ids)
	return ids
}

// All runs every experiment in order.
func All(o Options) []*Table {
	out := make([]*Table, len(list))
	for i, e := range list {
		out[i] = e.run(o)
	}
	return out
}
