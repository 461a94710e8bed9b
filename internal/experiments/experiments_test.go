package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tiny keeps experiment tests fast.
func tiny() Options { return Options{Seed: 1, Reps: 1, Scale: 0.05} }

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.Reps != 1 || o.Scale != 1 || o.Seed == 0 {
		t.Fatalf("normalize gave %+v", o)
	}
	if d := (Options{Scale: 0.001}).normalize().dur(25 * time.Minute); d < 30*time.Second {
		t.Fatalf("scaled duration %v below floor", d)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "x1",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"foo", "1"}, {"bar", "22"}},
		Notes:   []string{"a note"},
	}
	s := tab.String()
	for _, want := range []string{"X1", "demo", "foo", "22", "a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| foo | 1 |") {
		t.Errorf("Markdown() malformed:\n%s", md)
	}
}

func TestTableCellHelpers(t *testing.T) {
	tab := &Table{Rows: [][]string{{"x", "1"}, {"y", "2"}}}
	if tab.Cell(1, 1) != "2" || tab.Cell(5, 0) != "" || tab.Cell(0, 9) != "" {
		t.Fatal("Cell broken")
	}
	if tab.FindRow(0, "y") != 1 || tab.FindRow(0, "zzz") != -1 {
		t.Fatal("FindRow broken")
	}
}

func TestParsePctRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		v := float64(raw) / 65535
		got := ParsePct(pct(v))
		return math.Abs(got-v) < 0.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if ParsePct("n/a") != -1 || ParsePct("") != -1 {
		t.Fatal("malformed cells must parse to -1")
	}
}

// TestRegistryMatchesOrder guards the one experiment list: a duplicated ID
// would shadow a runner in Registry, and a nil runner would panic in the CLI.
func TestRegistryMatchesOrder(t *testing.T) {
	reg := Registry()
	if len(reg) != len(Order()) {
		t.Fatalf("registry has %d entries, order %d: duplicate ID", len(reg), len(Order()))
	}
	for id, run := range reg {
		if run == nil {
			t.Fatalf("experiment %q has no runner", id)
		}
	}
}

func TestTable2Static(t *testing.T) {
	tab := Table2()
	if len(tab.Rows) != 6 {
		t.Fatalf("%d hardware rows, want 6", len(tab.Rows))
	}
}

func TestCPUvsGPUCostClaim(t *testing.T) {
	tab := CPUvsGPUCost()
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "more") {
		t.Fatal("missing cost-comparison note")
	}
}

func TestFig3Shape(t *testing.T) {
	tab := Fig3(tiny())
	if len(tab.Rows) != 12 {
		t.Fatalf("fig3 rows = %d, want 12 vision models", len(tab.Rows))
	}
	if len(tab.Columns) != 6 {
		t.Fatalf("fig3 columns = %d, want model + 5 schemes", len(tab.Columns))
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			if v := ParsePct(cell); v < 0 || v > 1 {
				t.Fatalf("bad compliance cell %q", cell)
			}
		}
	}
}

func TestFig9LLMRows(t *testing.T) {
	tab := Fig9(tiny())
	if len(tab.Rows) != 4 {
		t.Fatalf("fig9 rows = %d, want 4 language models", len(tab.Rows))
	}
}

func TestFig13Scenarios(t *testing.T) {
	tab := Fig13(tiny())
	exhaustion, failures := 0, 0
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "R. Exhaustion") {
			exhaustion++
		}
		if strings.HasPrefix(row[0], "Node failures") {
			failures++
		}
	}
	if exhaustion != 3 || failures != 5 {
		t.Fatalf("fig13 scenario rows = %d/%d, want 3/5", exhaustion, failures)
	}
}

func TestColdStartsShowsReduction(t *testing.T) {
	tab := ColdStarts(Options{Seed: 3, Reps: 1, Scale: 0.2})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var with, without float64
	if _, err := parseUint(tab.Cell(0, 1), &with); err != nil {
		t.Fatal(err)
	}
	if _, err := parseUint(tab.Cell(1, 1), &without); err != nil {
		t.Fatal(err)
	}
	if with >= without {
		t.Fatalf("keep-alive boots %v not below immediate-termination boots %v", with, without)
	}
	if 1-with/without < 0.5 {
		t.Fatalf("cold-start reduction only %.0f%%; want substantial", (1-with/without)*100)
	}
}

func TestPeakGoodput(t *testing.T) {
	tr := trace.Azure(sim.NewRNG(42), 450, 5*time.Minute)
	// A collector where every request is served instantly: goodput must
	// equal the arrival rate over the peak windows, and that rate must be
	// well above the trace mean.
	c := metrics.NewCollector(200 * time.Millisecond)
	for _, a := range tr.Arrivals {
		c.Add(metrics.Record{Arrival: a, Latency: time.Millisecond})
	}
	g, arr := peakGoodput(c, tr)
	if math.Abs(g-arr) > 1e-9 {
		t.Fatalf("perfect serving: goodput %v != arrival %v", g, arr)
	}
	if arr < 2*tr.MeanRPS() {
		t.Fatalf("peak-window arrival %.0f not well above trace mean %.0f", arr, tr.MeanRPS())
	}
}

func TestFig1SanityShape(t *testing.T) {
	tab := Fig1(Options{Seed: 5, Reps: 1, Scale: 0.08})
	if len(tab.Rows) != 10 {
		t.Fatalf("fig1 rows = %d, want 5 schemes x 2 workloads", len(tab.Rows))
	}
	// The (P) rows on the V100 must be (near-)perfect.
	for _, row := range tab.Rows {
		if strings.Contains(row[0], "(P)") {
			if v := ParsePct(row[3]); v < 0.99 {
				t.Errorf("(P) scheme %s compliance %s; want ~100%%", row[0], row[3])
			}
		}
	}
}

func TestFig1RateScaleStable(t *testing.T) {
	s := fig1RateScale()
	if s < 0.3 || s > 4 {
		t.Fatalf("fig1 rate scale %.2f implausible", s)
	}
	if fig1RateScale() != s {
		t.Fatal("rate scale not deterministic")
	}
}

func TestExhaustionRateTracksCapacity(t *testing.T) {
	google := model.MustByName("GoogleNet")
	r := ExhaustionRate(google)
	if r < 1000 {
		t.Fatalf("exhaustion rate %.0f too low for the calibrated V100", r)
	}
}

func TestNormalizeMax(t *testing.T) {
	out := normalizeMax([]float64{2, 4, 1})
	want := []float64{0.5, 1, 0.25}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("normalizeMax = %v", out)
		}
	}
	if z := normalizeMax([]float64{0, 0}); z[0] != 0 || z[1] != 0 {
		t.Fatal("zero input mishandled")
	}
}

// parseUint scans a decimal cell.
func parseUint(cell string, out *float64) (int, error) {
	var v float64
	n, err := fmt.Sscan(cell, &v)
	*out = v
	return n, err
}

func TestFig3AttachesSVG(t *testing.T) {
	tab := Fig3(tiny())
	if len(tab.SVGs) != 1 || tab.SVGs[0].Name != "fig3-slo-compliance" {
		t.Fatalf("fig3 SVGs = %+v", tab.SVGs)
	}
	var buf bytes.Buffer
	if err := tab.SVGs[0].Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Fatal("SVG render empty")
	}
}

func TestFig6AttachesCDFSVGAndPlot(t *testing.T) {
	tab := Fig6(tiny())
	if tab.Plot == "" {
		t.Fatal("fig6 missing terminal plot")
	}
	if len(tab.SVGs) != 1 {
		t.Fatalf("fig6 SVGs = %d, want 1", len(tab.SVGs))
	}
	if !strings.Contains(tab.Markdown(), "```") {
		t.Fatal("markdown missing plot code block")
	}
}
