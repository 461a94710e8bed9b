package core

import (
	"testing"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/profile"
)

func mkState(modelName string, hwName string, predicted, observed float64) *State {
	m := model.MustByName(modelName)
	hw, ok := hardware.ByName(hwName)
	if !ok {
		panic("unknown hw " + hwName)
	}
	return &State{
		Model:        m,
		SLO:          DefaultSLO,
		Current:      hw,
		HasCurrent:   true,
		Entry:        profile.Lookup(m, hw),
		PredictedRPS: predicted,
		ObservedRPS:  observed,
	}
}

func TestPaldiaHardwareEscalatesWithPredictedRate(t *testing.T) {
	low := paldiaHardware(mkState("ResNet 50", "m4.xlarge", 10, 10))
	if low.IsGPU() {
		t.Errorf("at 10 rps Paldia picked %v, want a CPU node", low)
	}
	high := paldiaHardware(mkState("ResNet 50", "m4.xlarge", 430, 430))
	if !high.IsGPU() {
		t.Errorf("at 430 rps Paldia picked %v, want a GPU node", high)
	}
	if hv := paldiaHardware(mkState("VGG 19", "m4.xlarge", 220, 220)); hv.Accel != "V100" {
		t.Errorf("VGG 19 at 220 rps picked %v, want V100 (only GPU that sustains it)", hv)
	}
}

func TestPaldiaHardwareCostPreference(t *testing.T) {
	// At a rate several GPUs can serve, Paldia must not pick the V100 when a
	// cheaper GPU's T_max is within the 50ms slack.
	got := paldiaHardware(mkState("ResNet 50", "m4.xlarge", 150, 150))
	if got.Accel == "V100" {
		t.Errorf("picked the V100 at 150 rps; a cheaper node must win within the slack window")
	}
}

func TestCheapestIsolatedIgnoresInterference(t *testing.T) {
	// The $-baselines judge hardware by isolated batch latency + raw
	// throughput; for DenseNet 121 at its 225 rps peak they settle on a
	// cheaper node than the one Paldia needs only when interference is
	// ignored. At minimum, the choice must never be more expensive than
	// Paldia's.
	sBase := mkState("DenseNet 121", "m4.xlarge", 225, 225)
	base := cheapestIsolated(sBase)
	pal := paldiaHardware(sBase)
	if base.CostPerHour > pal.CostPerHour {
		t.Errorf("cheapestIsolated picked %v, dearer than Paldia's %v", base, pal)
	}
}

func TestCheapestIsolatedReactsToObservedOnly(t *testing.T) {
	s := mkState("DenseNet 121", "m4.xlarge", 500, 5)
	got := cheapestIsolated(s)
	if got.IsGPU() {
		t.Errorf("baseline used the predicted rate; observed is 5 rps, want a CPU node, got %v", got)
	}
}

func TestPerfVariantsAlwaysV100(t *testing.T) {
	s := mkState("MobileNet", "m4.xlarge", 1, 1)
	for _, scheme := range []Scheme{NewINFlessLlamaPerf(), NewMoleculePerf()} {
		if got := scheme.Policy.DesiredHardware(s); got.Accel != "V100" {
			t.Errorf("%s picked %v, want V100", scheme.Name(), got)
		}
	}
}

func TestSplitPolicies(t *testing.T) {
	s := mkState("ResNet 50", "M60", 400, 400)
	s.ActiveDemand = 2.5 // heavily loaded device
	n := 300
	if y := NewINFlessLlamaCost().Policy.SplitY(s, n); y != 0 {
		t.Errorf("INFless/Llama split y=%d, want 0 (all spatial)", y)
	}
	if y := NewMoleculeCost().Policy.SplitY(s, n); y != n {
		t.Errorf("Molecule split y=%d, want %d (all queued)", y, n)
	}
	y := NewPaldia().Policy.SplitY(s, n)
	if y < 0 || y > n {
		t.Fatalf("Paldia y=%d out of range", y)
	}
	if y == 0 {
		t.Errorf("Paldia queued nothing on a device with demand 2.5; hybrid expected")
	}
}

func TestPaldiaSplitIdleLowFBR(t *testing.T) {
	// On an idle V100 with a low-FBR model and one batch of requests,
	// everything should run spatially.
	s := mkState("EfficientNet B0", "V100", 100, 100)
	if y := NewPaldia().Policy.SplitY(s, 64); y != 0 {
		t.Errorf("y=%d for one unsaturating batch, want 0", y)
	}
}

func TestSplitOnCPUNodeIsZero(t *testing.T) {
	s := mkState("ResNet 50", "m4.xlarge", 10, 10)
	if y := NewPaldia().Policy.SplitY(s, 50); y != 0 {
		t.Errorf("Paldia split on CPU node y=%d, want 0 (runtime serializes anyway)", y)
	}
}

func TestFixedFractionSplit(t *testing.T) {
	sch := NewOfflineHybrid(hardware.MostPerformant(hardware.GPU), 0.4)
	s := mkState("SENet 18", "M60", 100, 100)
	if y := sch.Policy.SplitY(s, 100); y != 40 {
		t.Errorf("fixed fraction y=%d, want 40", y)
	}
	if y := sch.Policy.SplitY(s, 0); y != 0 {
		t.Errorf("fixed fraction on 0 requests y=%d", y)
	}
}

func TestFailoverSpec(t *testing.T) {
	m60, _ := hardware.ByName("M60")
	got := FailoverSpec(m60)
	if got.ComputeScore <= m60.ComputeScore {
		t.Fatalf("failover from M60 chose %v, want more performant", got)
	}
	// Cheapest of the more performant nodes.
	if got.Accel != "K80" {
		t.Errorf("failover from M60 = %v, want K80 (cheapest better node)", got)
	}
	// From the top node, fall back to the next best.
	v100, _ := hardware.ByName("V100")
	next := FailoverSpec(v100)
	if next.Accel != "K80" {
		t.Errorf("failover from V100 = %v, want K80 (next best)", next)
	}
}

func TestWaitLimits(t *testing.T) {
	if NewPaldia().Policy.WaitLimit() != 3 {
		t.Error("Paldia wait_limit must be 3 (the paper's repeated-mismatch rule)")
	}
	if NewOracle().Policy.WaitLimit() != 1 {
		t.Error("Oracle should reconfigure immediately")
	}
}

func TestStandardSchemes(t *testing.T) {
	schemes := StandardSchemes()
	if len(schemes) != 5 {
		t.Fatalf("%d standard schemes, want 5", len(schemes))
	}
	names := map[string]bool{}
	for _, s := range schemes {
		names[s.Name()] = true
	}
	for _, want := range []string{"Paldia", "INFless/Llama ($)", "INFless/Llama (P)",
		"Molecule (beta) ($)", "Molecule (beta) (P)"} {
		if !names[want] {
			t.Errorf("missing scheme %q", want)
		}
	}
}

func TestOracleFlags(t *testing.T) {
	o := NewOracle()
	if !o.Clairvoyant {
		t.Fatal("Oracle must be clairvoyant with pre-positioned hardware")
	}
	p := NewPaldia()
	if p.Clairvoyant {
		t.Fatal("Paldia must not be clairvoyant")
	}
}

func TestCheapestIsolatedEscalationLadder(t *testing.T) {
	// The $-baselines climb the cost ladder as the observed rate rises.
	m := "ResNet 50"
	prevCost := 0.0
	for _, rate := range []float64{10, 120, 300, 700, 2500} {
		hw := cheapestIsolated(mkState(m, "m4.xlarge", rate, rate))
		if hw.CostPerHour < prevCost {
			t.Fatalf("at %v rps the choice got cheaper (%v after $%.2f)", rate, hw, prevCost)
		}
		prevCost = hw.CostPerHour
	}
	// Beyond every node's throughput the fallback is the V100.
	if hw := cheapestIsolated(mkState(m, "m4.xlarge", 1e6, 1e6)); hw.Accel != "V100" {
		t.Fatalf("fallback = %v, want V100", hw)
	}
}

func TestPaldiaVariants(t *testing.T) {
	if got := NewPaldiaWithWaitLimit(7).Policy.WaitLimit(); got != 7 {
		t.Fatalf("wait limit = %d, want 7", got)
	}
	if got := NewPaldiaWithWaitLimit(0).Policy.WaitLimit(); got != 1 {
		t.Fatalf("degenerate wait limit = %d, want clamp to 1", got)
	}
	// The reactive variant must ignore the forecast.
	s := mkState("ResNet 50", "m4.xlarge", 1e6, 5)
	reactive := NewPaldiaReactive().Policy.DesiredHardware(s)
	if reactive.IsGPU() {
		t.Fatalf("reactive variant used the forecast: %v", reactive)
	}
	predictive := NewPaldia().Policy.DesiredHardware(s)
	if !predictive.IsGPU() {
		t.Fatalf("predictive variant ignored the forecast: %v", predictive)
	}
}

func TestTimeSharedAndMPSOnlySchemes(t *testing.T) {
	m60, _ := hardware.ByName("M60")
	s := mkState("SENet 18", "M60", 100, 100)
	ts := NewTimeSharedOnly(m60, "($)")
	mps := NewMPSOnly(m60, "($)")
	if ts.Policy.SplitY(s, 100) != 100 {
		t.Fatal("time-shared-only must queue everything")
	}
	if mps.Policy.SplitY(s, 100) != 0 {
		t.Fatal("MPS-only must queue nothing")
	}
	if ts.Policy.DesiredHardware(s).Name != m60.Name ||
		mps.Policy.DesiredHardware(s).Name != m60.Name {
		t.Fatal("motivation schemes must stay pinned")
	}
}

// TestStateRowsFollowModel pins the State's profiling-row cache: a State
// literal resolves its rows on first use, and a State whose Model changes —
// to another catalog model, or to a doctored spec that keeps a catalog name —
// re-resolves them instead of deciding on the old model's rows.
func TestStateRowsFollowModel(t *testing.T) {
	for _, p := range []Policy{NewPaldia().Policy, NewINFlessLlamaCost().Policy} {
		st := mkState("ResNet 50", "m4.xlarge", 220, 220)
		p.DesiredHardware(st)
		if st.rows != profile.RowsFor(st.Model) {
			t.Fatalf("%s: State literal did not resolve the catalog rows of %s", p.Name(), st.Model.Name)
		}

		vgg := model.MustByName("VGG 19")
		st.Model = vgg
		want := p.DesiredHardware(mkState("VGG 19", "m4.xlarge", 220, 220))
		if got := p.DesiredHardware(st); got != want {
			t.Errorf("%s: after Model changed to %s the State picked %s, want %s", p.Name(), vgg.Name, got.Name, want.Name)
		}
		if st.rows != profile.RowsFor(vgg) {
			t.Errorf("%s: State kept rows for %s after Model changed to %s", p.Name(), st.rows.Model.Name, vgg.Name)
		}

		light := vgg
		light.GFLOPsPerSample /= 8
		light.TrafficGBPerSample /= 8
		st.Model = light
		fresh := mkState("VGG 19", "m4.xlarge", 220, 220)
		fresh.Model = light
		want = p.DesiredHardware(fresh)
		if want.Name == p.DesiredHardware(mkState("VGG 19", "m4.xlarge", 220, 220)).Name {
			t.Fatalf("%s: the doctored model picks the catalog model's node %s; the test cannot tell their rows apart", p.Name(), want.Name)
		}
		if got := p.DesiredHardware(st); got != want {
			t.Errorf("%s: doctored %s picked %s, want %s", p.Name(), light.Name, got.Name, want.Name)
		}
		if st.rows == profile.RowsFor(vgg) || st.rows.Model != light {
			t.Errorf("%s: doctored %s was served the catalog model's rows", p.Name(), light.Name)
		}
	}
}
