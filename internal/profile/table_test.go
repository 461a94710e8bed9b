package profile

// The precomputed (model x hardware) tables must be invisible: every row —
// a catalog model's shared one, or one profiled on the fly for a doctored
// spec — has to equal an independent statement of the profiling formulas
// (the reference below), field by field and at every batch size.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/raceflag"
)

// testSLO is the vision-model SLO the capability probes are exercised at.
const testSLO = 200 * time.Millisecond

func skipIfRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc gates run in non-race builds")
	}
}

// The reference: the profiling formulas as pair-keyed closed forms. It
// shares no code with computeEntry or the Entry methods, so a slip in either
// shows up as a mismatch.

func refGFLOPs(m model.Spec, hw hardware.Spec) float64 {
	if hw.IsGPU() {
		return hw.ComputeScore * 1000 * GPUEfficiency
	}
	return hw.ComputeScore * 1000 * CPUEfficiency * m.CPUFactor
}

func refSoloSample(m model.Spec, hw hardware.Spec) time.Duration {
	sec := m.GFLOPsPerSample / refGFLOPs(m, hw)
	return time.Duration(sec * float64(time.Second))
}

func refSolo(m model.Spec, hw hardware.Spec, batch int) time.Duration {
	if batch < 1 {
		batch = 1
	}
	launch := CPULaunchOverhead
	if hw.IsGPU() {
		launch = GPULaunchOverhead
	}
	return launch + time.Duration(batch)*refSoloSample(m, hw)
}

func refFBR(m model.Spec, hw hardware.Spec) float64 {
	if !hw.IsGPU() {
		return 0
	}
	demandGBps := m.TrafficGBPerSample * refGFLOPs(m, hw) / m.GFLOPsPerSample
	return demandGBps / hw.MemBWGBps
}

func refComputeFraction(m model.Spec, hw hardware.Spec, batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	sat := int(SaturationConst * hw.ComputeScore / m.GFLOPsPerSample)
	if sat < 1 {
		sat = 1
	}
	if batch >= sat {
		return 1
	}
	return float64(batch) / float64(sat)
}

func refPreferredBatch(m model.Spec, hw hardware.Spec) int {
	best := 1
	for b := 1; b <= m.MaxBatch; b *= 2 {
		if refSolo(m, hw, b) <= TargetBatchLatency {
			best = b
		}
	}
	return best
}

func refThroughputRPS(m model.Spec, hw hardware.Spec) float64 {
	b := refPreferredBatch(m, hw)
	return float64(b) / refSolo(m, hw, b).Seconds()
}

func refMaxResidentJobs(m model.Spec, hw hardware.Spec) int {
	n := int(hw.MemGB / m.MemFootprintGB)
	if n < 1 {
		n = 1
	}
	if hw.IsGPU() && n > MPSMaxClients {
		n = MPSMaxClients
	}
	return n
}

func refEffectiveBatch(m model.Spec, hw hardware.Spec, rateRPS float64, maxWait time.Duration) int {
	b := int(rateRPS * maxWait.Seconds())
	if pref := refPreferredBatch(m, hw); b > pref {
		b = pref
	}
	if b < 1 {
		b = 1
	}
	return b
}

func refCanSustain(m model.Spec, hw hardware.Spec, rateRPS float64, maxWait time.Duration) bool {
	if rateRPS <= 0 {
		return true
	}
	b := refEffectiveBatch(m, hw, rateRPS, maxWait)
	return rateRPS*refSolo(m, hw, b).Seconds()/float64(b) <= Headroom
}

// checkRow asserts every field of e equals the reference for its pair, and
// SoloAt and ComputeAt equal it at each of the given batch sizes.
func checkRow(t *testing.T, e *Entry, batches []int) {
	t.Helper()
	m, hw := e.Model, e.Hardware
	pref := refPreferredBatch(m, hw)
	for _, c := range []struct {
		field     string
		got, want any
	}{
		{"SoloSample", e.SoloSample, refSoloSample(m, hw)},
		{"FBR", e.FBR, refFBR(m, hw)},
		{"PreferredBatch", e.PreferredBatch, pref},
		{"SoloBatch", e.SoloBatch, refSolo(m, hw, pref)},
		{"ThroughputRPS", e.ThroughputRPS, refThroughputRPS(m, hw)},
		{"MaxResidentJobs", e.MaxResidentJobs, refMaxResidentJobs(m, hw)},
		{"ComputeFrac", e.ComputeFrac, refComputeFraction(m, hw, pref)},
	} {
		if c.got != c.want {
			t.Errorf("%s/%s %s = %v, want %v", m.Name, hw.Name, c.field, c.got, c.want)
		}
	}
	for _, b := range batches {
		if got, want := e.SoloAt(b), refSolo(m, hw, b); got != want {
			t.Errorf("%s/%s SoloAt(%d) = %v, want %v", m.Name, hw.Name, b, got, want)
		}
		if got, want := e.ComputeAt(b), refComputeFraction(m, hw, b); got != want {
			t.Errorf("%s/%s ComputeAt(%d) = %v, want %v", m.Name, hw.Name, b, got, want)
		}
	}
}

// TestTableMatchesCompute sweeps every catalog pair: the shared table row
// Lookup serves is exactly the row profiled on the fly, and both match the
// reference, including clamped, boundary and beyond-MaxBatch batch sizes.
func TestTableMatchesCompute(t *testing.T) {
	for _, m := range model.Catalog() {
		for _, hw := range hardware.Catalog() {
			want := computeEntry(m, hw)
			got := Lookup(m, hw)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Lookup(%s, %s) = %+v, want computed %+v", m.Name, hw.Name, got, want)
			}
			checkRow(t, got, []int{0, 1, 2, 3, m.MaxBatch - 1, m.MaxBatch, m.MaxBatch + 1, 4 * m.MaxBatch})
		}
	}
}

// TestDoctoredSpecBypassesTable pins the stale-row guard of Lookup: a spec
// that shares a catalog name but differs in any field must be profiled on the
// fly, never served a stale table row.
func TestDoctoredSpecBypassesTable(t *testing.T) {
	m := model.MustByName("ResNet 50")
	hw, _ := hardware.ByName("M60")
	fast := hw
	fast.ComputeScore *= 2
	if Lookup(m, fast).SoloSample >= Lookup(m, hw).SoloSample {
		t.Fatal("doubling ComputeScore did not change the profiled entry; table served a stale row")
	}
	mm := m
	mm.GFLOPsPerSample *= 2
	if Lookup(mm, hw).SoloSample <= Lookup(m, hw).SoloSample {
		t.Fatal("doubling GFLOPsPerSample did not change the profiled entry; table served a stale row")
	}
}

// TestPenaltyByJobsMemo checks the precomputed contention curve is exactly
// Penalty(k*FBR) for every k the Eq. (1) walk may index.
func TestPenaltyByJobsMemo(t *testing.T) {
	for _, m := range model.Catalog() {
		for _, hw := range hardware.Catalog() {
			e := Lookup(m, hw)
			if len(e.PenaltyByJobs) != MPSMaxClients+1 {
				t.Fatalf("PenaltyByJobs(%s, %s) has %d entries, want %d", m.Name, hw.Name, len(e.PenaltyByJobs), MPSMaxClients+1)
			}
			for k, got := range e.PenaltyByJobs {
				if want := Penalty(float64(k) * e.FBR); got != want {
					t.Errorf("PenaltyByJobs[%d](%s, %s) = %v, want Penalty(%d*FBR) = %v", k, m.Name, hw.Name, got, k, want)
				}
			}
		}
	}
}

// TestRowsAppendCapable checks the scratch-reusing capable pool returns
// exactly the reference pool and appends after existing elements.
func TestRowsAppendCapable(t *testing.T) {
	m := model.MustByName("ResNet 50")
	rows := RowsFor(m)
	for _, rate := range []float64{0, 10, 120, 400, 5000} {
		want := capablePoolReference(m, rate, testSLO)
		got := specsOf(rows.AppendCapable(make([]*Entry, 0, 8), rate, testSLO))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("AppendCapable at %.0f rps = %v, want %v", rate, got, want)
		}
		// Appending after a sentinel leaves it untouched.
		sentinel := rows.ByCost[0]
		withPrefix := rows.AppendCapable([]*Entry{sentinel}, rate, testSLO)
		if len(withPrefix) != len(want)+1 || withPrefix[0] != sentinel || !reflect.DeepEqual(specsOf(withPrefix[1:]), want) {
			t.Errorf("AppendCapable with prefix at %.0f rps = %v, want sentinel + %v", rate, specsOf(withPrefix), want)
		}
	}
}

func specsOf(es []*Entry) []hardware.Spec {
	out := make([]hardware.Spec, len(es))
	for i, e := range es {
		out[i] = e.Hardware
	}
	return out
}

// capablePoolReference assembles the capable pool from the reference alone
// (solo latency at the preferred batch, sustainability): the pool
// Rows.AppendCapable must match.
func capablePoolReference(m model.Spec, rate float64, slo time.Duration) []hardware.Spec {
	var pool []hardware.Spec
	for _, hw := range hardware.CostSorted() {
		if refSolo(m, hw, refPreferredBatch(m, hw)) > slo*3/4 || !refCanSustain(m, hw, rate, capabilityMaxWait(slo)) {
			continue
		}
		pool = append(pool, hw)
	}
	if len(pool) == 0 {
		pool = append(pool, hardware.MostPerformant(hardware.GPU))
	}
	return pool
}

// doctoredModel keeps a catalog name but profiles differently, so any
// name-keyed cache would serve it a stale catalog row.
func doctoredModel() model.Spec {
	m := model.MustByName("ResNet 50")
	m.GFLOPsPerSample *= 1.7
	m.MaxBatch = 96
	return m
}

// TestRowsMatchReference is the differential test for resolved rows: for
// every catalog model and a doctored same-name model, at rates 0-2000 rps,
// AppendCapable yields exactly the reference capable pool in order, and
// every row's fields, SoloAt and ComputeAt at every batch size
// 0..MaxBatch+2, EffectiveBatchAt and CanSustain equal the reference.
func TestRowsMatchReference(t *testing.T) {
	models := append(model.Catalog(), doctoredModel())
	for _, m := range models {
		rows := RowsFor(m)
		if rows.Model != m {
			t.Fatalf("RowsFor(%s).Model = %+v, want %+v", m.Name, rows.Model, m)
		}
		if len(rows.ByCost) != len(hardware.CostSorted()) {
			t.Fatalf("RowsFor(%s) has %d rows, want one per catalog node", m.Name, len(rows.ByCost))
		}
		if rows.Fallback.Hardware != hardware.MostPerformant(hardware.GPU) || rows.Fallback.Model != m {
			t.Errorf("RowsFor(%s).Fallback = %s/%s, want the most performant GPU", m.Name, rows.Fallback.Model.Name, rows.Fallback.Hardware.Name)
		}
		batches := make([]int, m.MaxBatch+3)
		for b := range batches {
			batches[b] = b
		}
		for i, e := range rows.ByCost {
			hw := hardware.CostSorted()[i]
			if e.Hardware != hw || e.Model != m {
				t.Fatalf("RowsFor(%s).ByCost[%d] is %s/%s, want %s", m.Name, i, e.Model.Name, e.Hardware.Name, hw.Name)
			}
			if want := computeEntry(m, hw); !reflect.DeepEqual(e, want) {
				t.Errorf("RowsFor(%s) row for %s = %+v, want computed %+v", m.Name, hw.Name, e, want)
			}
			if rows.Entry(hw) != e {
				t.Errorf("RowsFor(%s).Entry(%s) is not the resolved row", m.Name, hw.Name)
			}
			checkRow(t, e, batches)
			for rate := 0.0; rate <= 2000; rate += 25 {
				for _, wait := range []time.Duration{testSLO / 4, 150 * time.Millisecond / 4, time.Second / 4} {
					if got, want := e.EffectiveBatchAt(rate, wait), refEffectiveBatch(m, hw, rate, wait); got != want {
						t.Errorf("%s/%s EffectiveBatchAt(%.0f, %v) = %d, want %d", m.Name, hw.Name, rate, wait, got, want)
					}
					if got, want := e.CanSustain(rate, wait), refCanSustain(m, hw, rate, wait); got != want {
						t.Errorf("%s/%s CanSustain(%.0f, %v) = %v, want %v", m.Name, hw.Name, rate, wait, got, want)
					}
				}
			}
		}
		for rate := 0.0; rate <= 2000; rate += 25 {
			for _, slo := range []time.Duration{150 * time.Millisecond, testSLO, time.Second} {
				want := capablePoolReference(m, rate, slo)
				if got := specsOf(rows.AppendCapable(nil, rate, slo)); !reflect.DeepEqual(got, want) {
					t.Errorf("RowsFor(%s).AppendCapable(%.0f, %v) = %v, want %v", m.Name, rate, slo, got, want)
				}
			}
		}
	}
}

// TestDoctoredModelNeverGetsCatalogRows pins the stale-row guard of RowsFor
// and Lookup: a same-name model with different fields gets its own rows,
// never the catalog's shared ones.
func TestDoctoredModelNeverGetsCatalogRows(t *testing.T) {
	cat := model.MustByName("ResNet 50")
	doc := doctoredModel()
	if RowsFor(cat) != RowsFor(cat) {
		t.Error("catalog model's rows are not shared across RowsFor calls")
	}
	rows := RowsFor(doc)
	if rows == RowsFor(cat) {
		t.Fatal("doctored model was served the catalog model's rows")
	}
	catRows := RowsFor(cat)
	for i, e := range rows.ByCost {
		if e == catRows.ByCost[i] {
			t.Fatalf("doctored model shares the catalog row for %s", e.Hardware.Name)
		}
		if e.SoloSample == catRows.ByCost[i].SoloSample {
			t.Errorf("doctored model's %s row has the catalog SoloSample %v", e.Hardware.Name, e.SoloSample)
		}
		if Lookup(doc, e.Hardware) == catRows.ByCost[i] {
			t.Errorf("Lookup served the doctored model the catalog row for %s", e.Hardware.Name)
		}
	}
	// A doctored node is profiled on the fly by a catalog model's rows too.
	hw := catRows.ByCost[len(catRows.ByCost)-1].Hardware
	hw.ComputeScore *= 2
	if e := catRows.Entry(hw); e.Hardware != hw || e.SoloSample >= catRows.Entry(catRows.ByCost[len(catRows.ByCost)-1].Hardware).SoloSample {
		t.Errorf("Rows.Entry on a doctored node = %+v, want a freshly profiled faster row", e)
	}
}

// TestCatalogCostOrderDistinct pins the invariant Rows.AppendCapable's
// no-sort walk relies on: catalog prices are pairwise distinct, so the
// cost-sorted snapshot is a strict total order and filtering it yields the
// same sequence as sorting a filtered copy.
func TestCatalogCostOrderDistinct(t *testing.T) {
	seen := map[float64]string{}
	for _, hw := range hardware.Catalog() {
		if prev, dup := seen[hw.CostPerHour]; dup {
			t.Fatalf("catalog prices collide: %s and %s both cost %.2f/h", prev, hw.Name, hw.CostPerHour)
		}
		seen[hw.CostPerHour] = hw.Name
	}
	cs := hardware.CostSorted()
	for i := 1; i < len(cs); i++ {
		if cs[i-1].CostPerHour >= cs[i].CostPerHour {
			t.Fatalf("CostSorted not strictly ascending at %d: %v then %v", i, cs[i-1], cs[i])
		}
	}
}

func TestTableReadsAllocFree(t *testing.T) {
	skipIfRace(t)
	m := model.MustByName("ResNet 50")
	hw, _ := hardware.ByName("M60")
	var e *Entry
	if allocs := testing.AllocsPerRun(100, func() { e = Lookup(m, hw) }); allocs != 0 {
		t.Errorf("Lookup allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { e.SoloAt(48) }); allocs != 0 {
		t.Errorf("SoloAt allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { e.ComputeAt(48) }); allocs != 0 {
		t.Errorf("ComputeAt allocates %.1f objects/op, want 0", allocs)
	}
	var rows *Rows
	if allocs := testing.AllocsPerRun(100, func() { rows = RowsFor(m) }); allocs != 0 {
		t.Errorf("RowsFor on a catalog model allocates %.1f objects/op, want 0", allocs)
	}
	dst := make([]*Entry, 0, 8)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = rows.AppendCapable(dst[:0], 120, testSLO)
	}); allocs != 0 {
		t.Errorf("Rows.AppendCapable allocates %.1f objects/op with warm scratch, want 0", allocs)
	}
}
