package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ScaleOut goes beyond the paper: a Poisson flood at 1.8x the most
// performant GPU's capacity — a rate the paper's single-serving-node designs
// cannot survive at all — served with horizontal scale-out enabled
// (Config.MaxNodes). The paper's own framing (§II: "multiple CPU nodes to
// achieve the same throughput") motivates the extension.
func ScaleOut(o Options) *Table {
	o = o.normalize()
	m := model.MustByName("GoogleNet")
	v100 := hardware.MostPerformant(hardware.GPU)
	capacity := profile.Lookup(m, v100).ThroughputRPS
	rate := 1.8 * capacity
	src := &source{realize: func(rng *sim.RNG) *trace.Trace {
		return trace.Poisson(rng, rate, o.dur(10*time.Minute))
	}}

	t := &Table{
		ID:    "scaleout",
		Title: "Horizontal scale-out beyond the paper: GoogleNet at 1.8x V100 capacity",
		Columns: []string{"configuration", "SLO compliance", "P99", "cost",
			"V100-seconds held"},
	}
	configs := []struct {
		name     string
		maxNodes int
	}{
		{"Paldia, single node (paper design)", 1},
		{"Paldia, scale-out (MaxNodes=4)", 4},
	}
	var cells []cell
	for _, c := range configs {
		maxNodes := c.maxNodes
		mut := func(cfg *core.Config) { cfg.MaxNodes = maxNodes }
		cells = append(cells, cell{m: m, src: src, scheme: core.NewPaldiaPinned(v100), mut: mut})
	}
	for i, a := range runCells(o, cells) {
		c := configs[i]
		var held time.Duration
		for _, res := range a.Results {
			held += res.HeldBySpec[v100.Name]
		}
		held /= time.Duration(len(a.Results))
		t.Rows = append(t.Rows, []string{
			c.name, pct(a.Compliance), msec(a.P99), dollars(a.Cost),
			fmt.Sprintf("%.0f", held.Seconds()),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"arrival %.0f rps vs a single V100's ~%.0f rps serial capacity; replicas are procured "+
			"when the forecast exceeds one node's sustainable rate and retired with hysteresis",
		rate, capacity))
	return t
}
