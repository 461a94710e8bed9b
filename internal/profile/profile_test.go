package profile

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
)

func mustHW(t *testing.T, name string) hardware.Spec {
	t.Helper()
	hw, ok := hardware.ByName(name)
	if !ok {
		t.Fatalf("hardware %q missing", name)
	}
	return hw
}

func TestSoloLatencyBandOnGPUs(t *testing.T) {
	// Paper: batch sizes are selected so batch execution latency stays
	// between ~50 and 200 ms. Our PreferredBatch must keep every workload's
	// solo batch latency under 200 ms on every GPU, and heavyweight models
	// should land above 30 ms (not trivially fast).
	for _, m := range model.Catalog() {
		for _, hw := range hardware.GPUs() {
			e := Lookup(m, hw)
			if e.SoloBatch > 200*time.Millisecond {
				t.Errorf("%s on %s: solo batch latency %v exceeds 200ms (batch %d)",
					m.Name, hw.Accel, e.SoloBatch, e.PreferredBatch)
			}
		}
	}
	heavy := []string{"VGG 19", "DPN 92", "BERT", "Funnel-Transformer"}
	for _, name := range heavy {
		m := model.MustByName(name)
		v100 := mustHW(t, "V100")
		if got := Lookup(m, v100).SoloBatch; got < 30*time.Millisecond {
			t.Errorf("%s on V100 solo batch %v suspiciously fast", name, got)
		}
	}
}

func TestGPUOrderingPreserved(t *testing.T) {
	// For every model, V100 must be strictly faster per sample than K80,
	// and K80 faster than M60.
	v100, k80, m60 := mustHW(t, "V100"), mustHW(t, "K80"), mustHW(t, "M60")
	for _, m := range model.Catalog() {
		a, b, c := Lookup(m, v100).SoloSample, Lookup(m, k80).SoloSample, Lookup(m, m60).SoloSample
		if !(a < b && b < c) {
			t.Errorf("%s: per-sample latency V100=%v K80=%v M60=%v not ordered", m.Name, a, b, c)
		}
	}
}

func TestCPUSlowerThanGPU(t *testing.T) {
	// Every CPU node is slower than the V100 for every workload, and the
	// cheapest CPU node is slower than even the cheapest GPU. (A 16-vCPU
	// IceLake node can rival an M60 on tiny CPU-friendly nets, so we don't
	// require CPU < M60 universally.)
	v100, m60, m4 := mustHW(t, "V100"), mustHW(t, "M60"), mustHW(t, "m4.xlarge")
	for _, m := range model.Catalog() {
		for _, cpu := range hardware.CPUs() {
			if Lookup(m, cpu).SoloSample <= Lookup(m, v100).SoloSample {
				t.Errorf("%s: CPU %s per-sample latency not above V100's", m.Name, cpu.Name)
			}
		}
		if Lookup(m, m4).SoloSample <= Lookup(m, m60).SoloSample {
			t.Errorf("%s: m4.xlarge per-sample latency not above M60's", m.Name)
		}
	}
}

func TestFBRProperties(t *testing.T) {
	m60, v100 := mustHW(t, "M60"), mustHW(t, "V100")
	for _, m := range model.Catalog() {
		fM60, fV100 := Lookup(m, m60).FBR, Lookup(m, v100).FBR
		if fM60 <= fV100 {
			t.Errorf("%s: FBR on M60 (%.2f) must exceed FBR on V100 (%.2f) — cheap GPUs saturate first",
				m.Name, fM60, fV100)
		}
		if fM60 <= 0 {
			t.Errorf("%s: FBR on M60 = %v, want > 0", m.Name, fM60)
		}
	}
	for _, cpu := range hardware.CPUs() {
		if Lookup(model.MustByName("ResNet 50"), cpu).FBR != 0 {
			t.Errorf("FBR on CPU node %s must be 0", cpu.Name)
		}
	}
}

func TestLanguageModelFBRsAboveOne(t *testing.T) {
	// The sensitivity study needs LLMs whose single job already saturates
	// the cost-effective GPUs.
	m60 := mustHW(t, "M60")
	for _, m := range model.LanguageModels() {
		if f := Lookup(m, m60).FBR; f <= 1 {
			t.Errorf("%s FBR on M60 = %.2f, want > 1", m.Name, f)
		}
	}
	// ...while vision models stay below 1 (co-location is possible).
	for _, m := range model.VisionModels() {
		if f := Lookup(m, m60).FBR; f >= 1 {
			t.Errorf("%s FBR on M60 = %.2f, want < 1", m.Name, f)
		}
	}
}

func TestHighFBRClassification(t *testing.T) {
	// The catalog's static high-FBR class must agree with the derived FBRs
	// on the M60: every high-FBR vision model above every low-FBR one.
	m60 := mustHW(t, "M60")
	minHigh, maxLow := math.Inf(1), 0.0
	for _, m := range model.VisionModels() {
		f := Lookup(m, m60).FBR
		if m.IsHighFBR() && f < minHigh {
			minHigh = f
		}
		if !m.IsHighFBR() && f > maxLow {
			maxLow = f
		}
	}
	if minHigh <= maxLow {
		t.Fatalf("high-FBR class overlaps low: min(high)=%.3f <= max(low)=%.3f", minHigh, maxLow)
	}
}

func TestPenalty(t *testing.T) {
	cases := []struct{ d, want float64 }{
		{0, 1}, {0.5, 1}, {1, 1},
		{2, math.Pow(2, ContentionAlpha)},
		{4, math.Pow(4, ContentionAlpha)},
	}
	for _, c := range cases {
		if got := Penalty(c.d); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Penalty(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestSlowdown(t *testing.T) {
	// A job alone never slows down, regardless of its own FBR.
	for _, own := range []float64{0.1, 0.9, 1.5, 2.5} {
		if got := Slowdown(own, own); got != 1 {
			t.Errorf("Slowdown(own=own=%v) = %v, want 1", own, got)
		}
	}
	// Two saturating jobs slow each other down superlinearly vs their count.
	s := Slowdown(3.0, 1.5)
	if s <= 1 {
		t.Fatalf("Slowdown(3, 1.5) = %v, want > 1", s)
	}
	want := math.Pow(3, ContentionAlpha) / math.Pow(1.5, ContentionAlpha)
	if math.Abs(s-want) > 1e-12 {
		t.Fatalf("Slowdown(3, 1.5) = %v, want %v", s, want)
	}
}

// Property: Slowdown is >= 1 and monotone nondecreasing in total demand.
func TestSlowdownMonotoneProperty(t *testing.T) {
	f := func(ownRaw, extra1Raw, extra2Raw uint16) bool {
		own := float64(ownRaw)/1000 + 0.01
		e1 := float64(extra1Raw) / 1000
		e2 := e1 + float64(extra2Raw)/1000
		s1 := Slowdown(own+e1, own)
		s2 := Slowdown(own+e2, own)
		return s1 >= 1 && s2 >= s1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPreferredBatchBounds(t *testing.T) {
	for _, m := range model.Catalog() {
		for _, hw := range hardware.Catalog() {
			b := Lookup(m, hw).PreferredBatch
			if b < 1 || b > m.MaxBatch {
				t.Errorf("%s on %s: batch %d outside [1,%d]", m.Name, hw.Name, b, m.MaxBatch)
			}
			// Power of two.
			if b&(b-1) != 0 {
				t.Errorf("%s on %s: batch %d not a power of two", m.Name, hw.Name, b)
			}
		}
	}
}

func TestPreferredBatchGrowsWithHardware(t *testing.T) {
	m := model.MustByName("VGG 19")
	bM60 := Lookup(m, mustHW(t, "M60")).PreferredBatch
	bV100 := Lookup(m, mustHW(t, "V100")).PreferredBatch
	if bV100 < bM60 {
		t.Fatalf("VGG 19 batch on V100 (%d) smaller than on M60 (%d)", bV100, bM60)
	}
}

func TestCPUvsGPUCostClaim(t *testing.T) {
	// Paper §II: serving ResNet 50 at ~750 rps needs at least seven
	// m4.xlarge instances, costing 86% more than one g3s.xlarge.
	m := model.MustByName("ResNet 50")
	m4 := mustHW(t, "m4.xlarge")
	g3s := mustHW(t, "g3s.xlarge")
	perNode := Lookup(m, m4).ThroughputRPS
	n := int(math.Ceil(750 / perNode))
	if n < 6 || n > 8 {
		t.Fatalf("need %d m4.xlarge for 750 rps (per-node %.0f rps), want ~7", n, perNode)
	}
	cpuCost := float64(n) * m4.CostPerHour
	extra := (cpuCost - g3s.CostPerHour) / g3s.CostPerHour
	if extra < 0.5 || extra > 1.3 {
		t.Fatalf("CPU fleet costs %.0f%% more than one GPU node, want ~86%%", extra*100)
	}
	if Lookup(m, g3s).ThroughputRPS < 200 {
		t.Fatalf("g3s.xlarge ResNet 50 throughput %.0f rps too low to be the paper's GPU alternative",
			Lookup(m, g3s).ThroughputRPS)
	}
}

func TestCPUServesLowRatesOnly(t *testing.T) {
	// Paper: CPU nodes handle lower request rates (up to ~25 rps for
	// workloads with high FBRs). High-FBR models on the cheapest capable CPU
	// should top out well below GPU throughput.
	for _, name := range []string{"DPN 92", "VGG 19"} {
		m := model.MustByName(name)
		m4 := mustHW(t, "m4.xlarge")
		if tp := Lookup(m, m4).ThroughputRPS; tp > 60 {
			t.Errorf("%s on m4.xlarge sustains %.0f rps; want modest (<60)", name, tp)
		}
	}
}

// capablePool is the capable pool's node types: Rows.AppendCapable's rows,
// cheapest first.
func capablePool(m model.Spec, rateRPS float64, slo time.Duration) []hardware.Spec {
	return specsOf(RowsFor(m).AppendCapable(nil, rateRPS, slo))
}

func TestCapablePool(t *testing.T) {
	m := model.MustByName("ResNet 50")
	slo := 200 * time.Millisecond

	low := capablePool(m, 10, slo)
	if len(low) == 0 {
		t.Fatal("empty pool at 10 rps")
	}
	if low[0].Kind != hardware.CPU {
		t.Errorf("cheapest capable node at 10 rps is %v, want a CPU node", low[0])
	}

	high := capablePool(m, 400, slo)
	for _, hw := range high {
		if hw.Kind == hardware.CPU {
			t.Errorf("CPU node %s in pool at 400 rps", hw.Name)
		}
	}
	if len(high) == 0 {
		t.Fatal("empty pool at 400 rps")
	}

	// Sorted cheapest first.
	for _, pool := range [][]hardware.Spec{low, high} {
		for i := 1; i < len(pool); i++ {
			if pool[i].CostPerHour < pool[i-1].CostPerHour {
				t.Fatalf("pool not sorted by cost: %v", pool)
			}
		}
	}
}

func TestCapablePoolNeverEmpty(t *testing.T) {
	// Even at absurd rates the pool falls back to the most performant GPU.
	m := model.MustByName("VGG 19")
	pool := capablePool(m, 1e6, 200*time.Millisecond)
	if len(pool) != 1 || pool[0].Accel != "V100" {
		t.Fatalf("fallback pool = %v, want just the V100 node", pool)
	}
}

func TestVGG19NeedsV100AtPeak(t *testing.T) {
	// The Fig. 4b story: VGG 19's 225 rps peak is beyond the M60 and K80;
	// only the V100 sustains it.
	m := model.MustByName("VGG 19")
	if tp := Lookup(m, mustHW(t, "M60")).ThroughputRPS; tp > 180 {
		t.Errorf("M60 sustains %.0f rps of VGG 19; want < 180 so the peak overwhelms it", tp)
	}
	if tp := Lookup(m, mustHW(t, "V100")).ThroughputRPS; tp < 225 {
		t.Errorf("V100 sustains only %.0f rps of VGG 19; want >= 225", tp)
	}
}

func TestTableComplete(t *testing.T) {
	tab := Table()
	want := len(model.Catalog()) * len(hardware.Catalog())
	if len(tab) != want {
		t.Fatalf("table has %d entries, want %d", len(tab), want)
	}
	for _, e := range tab {
		if e.SoloSample <= 0 || e.ThroughputRPS <= 0 || e.MaxResidentJobs < 1 {
			t.Errorf("invalid entry %s/%s: %+v", e.Model.Name, e.Hardware.Name, e)
		}
	}
}

func TestMaxResidentJobs(t *testing.T) {
	bert := model.MustByName("BERT")
	m60 := Lookup(bert, mustHW(t, "M60")).MaxResidentJobs
	v100 := Lookup(bert, mustHW(t, "V100")).MaxResidentJobs
	if m60 >= v100 {
		t.Error("more BERT jobs should fit on the V100 (16GB) than the M60 (8GB)")
	}
	if m60 < 1 {
		t.Error("MaxResidentJobs must be at least 1")
	}
}

func TestEffectiveBatch(t *testing.T) {
	m := model.MustByName("ResNet 50")
	e := Lookup(m, mustHW(t, "M60"))
	// At 450 rps with a 50ms budget only ~22 requests accumulate.
	if got := e.EffectiveBatchAt(450, 50*time.Millisecond); got != 22 {
		t.Fatalf("EffectiveBatchAt(450rps, 50ms) = %d, want 22", got)
	}
	// At very high rates the preferred batch caps it.
	if got := e.EffectiveBatchAt(1e6, 50*time.Millisecond); got != e.PreferredBatch {
		t.Fatalf("EffectiveBatchAt not capped at preferred: %d", got)
	}
	if got := e.EffectiveBatchAt(0.1, 50*time.Millisecond); got != 1 {
		t.Fatalf("EffectiveBatchAt floor = %d, want 1", got)
	}
}

func TestCanSustainOrdering(t *testing.T) {
	m := model.MustByName("ResNet 50")
	m60, v100 := Lookup(m, mustHW(t, "M60")), Lookup(m, mustHW(t, "V100"))
	w := 50 * time.Millisecond
	if !m60.CanSustain(450, w) {
		t.Error("M60 should sustain ResNet 50 at its 450 rps class peak (the paper's " +
			"cost-effective GPUs ride out surges)")
	}
	if m60.CanSustain(900, w) {
		t.Error("M60 should NOT sustain ResNet 50 at 900 rps")
	}
	if !v100.CanSustain(900, w) {
		t.Error("V100 should sustain ResNet 50 at 900 rps")
	}
	if Lookup(model.MustByName("VGG 19"), m60.Hardware).CanSustain(225, w) {
		t.Error("M60 should NOT sustain VGG 19 at its 225 rps peak (Fig. 4b: only the V100 does)")
	}
	if !v100.CanSustain(0, w) {
		t.Error("zero rate is always sustainable")
	}
}

func TestCapablePoolEscalatesWithRate(t *testing.T) {
	// As the predicted rate climbs, the cheapest capable node escalates from
	// CPU through cheap GPUs to the V100 — the backbone of cost-effective
	// hardware selection.
	m := model.MustByName("ResNet 50")
	slo := 200 * time.Millisecond
	cheapestAt := func(rate float64) string {
		return capablePool(m, rate, slo)[0].Accel
	}
	low := cheapestAt(15)
	mid := cheapestAt(200)
	high := cheapestAt(440)
	if low == mid && mid == high {
		t.Fatalf("pool never escalates: %s/%s/%s", low, mid, high)
	}
	lowHW, _ := hardware.ByName(low)
	if lowHW.IsGPU() {
		t.Errorf("cheapest at 15 rps is %s, want a CPU node", low)
	}
	highHW, _ := hardware.ByName(high)
	if !highHW.IsGPU() {
		t.Errorf("cheapest at 440 rps is %s, want a GPU node", high)
	}
}

func TestMPSClientCap(t *testing.T) {
	// Tiny models would fit hundreds of containers in device memory; the
	// MPS client limit must clamp them.
	shuffle := model.MustByName("ShuffleNet V2")
	v100 := mustHW(t, "V100")
	if got := Lookup(shuffle, v100).MaxResidentJobs; got != MPSMaxClients {
		t.Fatalf("MaxResidentJobs = %d, want MPS cap %d", got, MPSMaxClients)
	}
	// CPU nodes are not MPS-limited.
	m4 := mustHW(t, "m4.xlarge")
	if got := Lookup(shuffle, m4).MaxResidentJobs; got <= MPSMaxClients {
		t.Fatalf("CPU node clamped to MPS limit: %d", got)
	}
}
