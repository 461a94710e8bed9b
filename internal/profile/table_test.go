package profile

// The precomputed (model x hardware) tables must be invisible: every
// table-backed accessor has to return exactly what the on-the-fly profiling
// formulas return, for catalog pairs (table hit) and doctored specs (compute
// fallback) alike.

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

// TestTableMatchesCompute sweeps every catalog pair, asserting each
// table-backed accessor agrees exactly with the pure profiling formulas.
func TestTableMatchesCompute(t *testing.T) {
	for _, m := range model.Catalog() {
		for _, hw := range hardware.Catalog() {
			want := computeEntry(m, hw)
			if got := Lookup(m, hw); !reflect.DeepEqual(got, want) {
				t.Errorf("Lookup(%s, %s) = %+v, want computed %+v", m.Name, hw.Name, got, want)
			}
			if got := SoloSample(m, hw); got != want.SoloSample {
				t.Errorf("SoloSample(%s, %s) = %v, want %v", m.Name, hw.Name, got, want.SoloSample)
			}
			if got := FBR(m, hw); got != want.FBR {
				t.Errorf("FBR(%s, %s) = %v, want %v", m.Name, hw.Name, got, want.FBR)
			}
			if got := PreferredBatch(m, hw); got != want.PreferredBatch {
				t.Errorf("PreferredBatch(%s, %s) = %d, want %d", m.Name, hw.Name, got, want.PreferredBatch)
			}
			if got := ThroughputRPS(m, hw); got != want.ThroughputRPS {
				t.Errorf("ThroughputRPS(%s, %s) = %v, want %v", m.Name, hw.Name, got, want.ThroughputRPS)
			}
			if got := MaxResidentJobs(m, hw); got != want.MaxResidentJobs {
				t.Errorf("MaxResidentJobs(%s, %s) = %d, want %d", m.Name, hw.Name, got, want.MaxResidentJobs)
			}
			if got := Lookup(m, hw).SoloAt(want.PreferredBatch); got != want.SoloBatch {
				t.Errorf("Lookup(%s, %s).SoloAt(PreferredBatch) = %v, want %v", m.Name, hw.Name, got, want.SoloBatch)
			}
			// Solo and ComputeFraction: clamped, boundary, and
			// beyond-MaxBatch batch sizes.
			for _, b := range []int{0, 1, 2, 3, m.MaxBatch - 1, m.MaxBatch, m.MaxBatch + 1, 4 * m.MaxBatch} {
				if got, want := Solo(m, hw, b), computeSolo(m, hw, b); got != want {
					t.Errorf("Solo(%s, %s, %d) = %v, want %v", m.Name, hw.Name, b, got, want)
				}
				if got, want := ComputeFraction(m, hw, b), computeComputeFraction(m, hw, b); got != want {
					t.Errorf("ComputeFraction(%s, %s, %d) = %v, want %v", m.Name, hw.Name, b, got, want)
				}
			}
		}
	}
}

// TestDoctoredSpecBypassesTable pins the safety property of pairIndex: a spec
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
// exactly CapablePool's pool and appends after existing elements.
func TestRowsAppendCapable(t *testing.T) {
	m := model.MustByName("ResNet 50")
	rows := RowsFor(m)
	for _, rate := range []float64{0, 10, 120, 400, 5000} {
		want := CapablePool(m, rate, testSLO)
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

// capablePoolReference assembles the capable pool from the pair-keyed
// formulas alone (Solo at the preferred batch, CanSustain): the reference
// Rows.AppendCapable and CapablePool must match.
func capablePoolReference(m model.Spec, rate float64, slo time.Duration) []hardware.Spec {
	var pool []hardware.Spec
	for _, hw := range hardware.CostSorted() {
		if Solo(m, hw, PreferredBatch(m, hw)) > slo*3/4 || !CanSustain(m, hw, rate, capabilityMaxWait(slo)) {
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

// TestRowsMatchPairAccessors is the differential test for resolved rows:
// for every catalog model and a doctored same-name model, at rates 0-2000
// rps, AppendCapable yields exactly the pair-keyed capable pool in order,
// and every row's SoloAt, ComputeAt, EffectiveBatchAt and CanSustain equal
// the pair-keyed formulas at every batch size 0..MaxBatch+2.
func TestRowsMatchPairAccessors(t *testing.T) {
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
			for b := 0; b <= m.MaxBatch+2; b++ {
				if got, want := e.SoloAt(b), Solo(m, hw, b); got != want {
					t.Errorf("%s/%s SoloAt(%d) = %v, want Solo %v", m.Name, hw.Name, b, got, want)
				}
				if got, want := e.ComputeAt(b), ComputeFraction(m, hw, b); got != want {
					t.Errorf("%s/%s ComputeAt(%d) = %v, want ComputeFraction %v", m.Name, hw.Name, b, got, want)
				}
			}
			for rate := 0.0; rate <= 2000; rate += 25 {
				for _, wait := range []time.Duration{testSLO / 4, 150 * time.Millisecond / 4, time.Second / 4} {
					if got, want := e.EffectiveBatchAt(rate, wait), EffectiveBatch(m, hw, rate, wait); got != want {
						t.Errorf("%s/%s EffectiveBatchAt(%.0f, %v) = %d, want %d", m.Name, hw.Name, rate, wait, got, want)
					}
					if got, want := e.CanSustain(rate, wait), CanSustain(m, hw, rate, wait); got != want {
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
				if got := CapablePool(m, rate, slo); !reflect.DeepEqual(got, want) {
					t.Errorf("CapablePool(%s, %.0f, %v) = %v, want %v", m.Name, rate, slo, got, want)
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
	if allocs := testing.AllocsPerRun(100, func() { Solo(m, hw, 48) }); allocs != 0 {
		t.Errorf("Solo allocates %.1f objects/op, want 0", allocs)
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
