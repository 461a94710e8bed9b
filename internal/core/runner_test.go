package core

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

// shortAzure builds a small Azure-like trace for integration tests.
func shortAzure(seed uint64, peak float64, dur time.Duration) *trace.Trace {
	return trace.Azure(sim.NewRNG(seed), peak, dur)
}

func TestRunServesEveryRequest(t *testing.T) {
	tr := shortAzure(1, 200, 3*time.Minute)
	res := Run(Config{
		Model:  model.MustByName("ResNet 50"),
		Trace:  tr,
		Scheme: NewPaldia(),
	})
	if res.Requests != tr.Count() {
		t.Fatalf("served %d of %d requests — requests were lost", res.Requests, tr.Count())
	}
	if res.FailedRequests != 0 {
		t.Fatalf("%d failed requests without failure injection", res.FailedRequests)
	}
	if res.Cost <= 0 {
		t.Fatal("zero cost")
	}
	if res.P99 <= 0 || res.P50 <= 0 || res.P50 > res.P99 {
		t.Fatalf("implausible percentiles P50=%v P99=%v", res.P50, res.P99)
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := shortAzure(7, 150, 2*time.Minute)
	cfg := Config{Model: model.MustByName("SENet 18"), Trace: tr, Scheme: NewPaldia()}
	a := Run(cfg)
	b := Run(cfg)
	if a.SLOCompliance != b.SLOCompliance || a.Cost != b.Cost ||
		a.P99 != b.P99 || a.Switches != b.Switches {
		t.Fatalf("same config produced different results:\n%+v\nvs\n%+v", a, b)
	}
}

func TestPerfSchemesStayOnV100(t *testing.T) {
	tr := shortAzure(2, 200, 2*time.Minute)
	for _, sch := range []Scheme{NewINFlessLlamaPerf(), NewMoleculePerf()} {
		res := Run(Config{Model: model.MustByName("DenseNet 121"), Trace: tr, Scheme: sch})
		if res.Switches != 0 {
			t.Errorf("%s switched hardware %d times; (P) schemes are pinned", sch.Name(), res.Switches)
		}
		if res.CPUCost != 0 {
			t.Errorf("%s accrued CPU cost %v", sch.Name(), res.CPUCost)
		}
		if len(res.HeldBySpec) != 1 {
			t.Errorf("%s held multiple node types: %v", sch.Name(), res.HeldBySpec)
		}
	}
}

func TestSchemeOrderingOnBurstyTrace(t *testing.T) {
	// The paper's headline ordering: (P) schemes ~match Paldia's compliance
	// at much higher cost; the ($) baselines are cheapest but visibly less
	// compliant; Paldia stays near the (P) compliance at a fraction of the
	// cost.
	tr := shortAzure(42, 450, 10*time.Minute)
	m := model.MustByName("ResNet 50")
	run := func(s Scheme) Result {
		return Run(Config{Model: m, Trace: tr, Scheme: s})
	}
	perf := run(NewINFlessLlamaPerf())
	cost := run(NewINFlessLlamaCost())
	paldia := run(NewPaldia())

	if perf.SLOCompliance < 0.99 {
		t.Fatalf("(P) compliance %.3f, want ~1", perf.SLOCompliance)
	}
	if paldia.SLOCompliance < perf.SLOCompliance-0.03 {
		t.Fatalf("Paldia compliance %.3f too far below (P) %.3f",
			paldia.SLOCompliance, perf.SLOCompliance)
	}
	if paldia.SLOCompliance <= cost.SLOCompliance {
		t.Fatalf("Paldia compliance %.3f not above ($) %.3f",
			paldia.SLOCompliance, cost.SLOCompliance)
	}
	if paldia.Cost >= perf.Cost*0.6 {
		t.Fatalf("Paldia cost $%.3f not well below (P) cost $%.3f", paldia.Cost, perf.Cost)
	}
	if cost.Cost > paldia.Cost {
		t.Fatalf("($) baseline cost $%.3f above Paldia's $%.3f", cost.Cost, paldia.Cost)
	}
}

func TestOracleAtLeastAsGoodAsPaldia(t *testing.T) {
	tr := shortAzure(5, 450, 5*time.Minute)
	m := model.MustByName("DenseNet 121")
	paldia := Run(Config{Model: m, Trace: tr, Scheme: NewPaldia()})
	oracle := Run(Config{Model: m, Trace: tr, Scheme: NewOracle()})
	if oracle.SLOCompliance < paldia.SLOCompliance-0.01 {
		t.Fatalf("Oracle compliance %.3f below Paldia's %.3f",
			oracle.SLOCompliance, paldia.SLOCompliance)
	}
	if paldia.SLOCompliance < oracle.SLOCompliance-0.05 {
		t.Fatalf("Paldia %.3f not within a few %% of Oracle %.3f (paper: ~0.8%%)",
			paldia.SLOCompliance, oracle.SLOCompliance)
	}
}

func TestNodeFailuresAreSurvived(t *testing.T) {
	tr := shortAzure(3, 225, 4*time.Minute)
	res := Run(Config{
		Model:           model.MustByName("DenseNet 121"),
		Trace:           tr,
		Scheme:          NewPaldia(),
		FailureEvery:    time.Minute,
		FailureDuration: time.Minute,
	})
	if res.Requests != tr.Count() {
		t.Fatalf("lost requests under failures: %d of %d", res.Requests, tr.Count())
	}
	// Some requests fail (in flight when the node dies), but the scheme must
	// recover: overall compliance stays high.
	if res.SLOCompliance < 0.80 {
		t.Fatalf("compliance %.3f under failures; failover is broken", res.SLOCompliance)
	}
	if res.Switches == 0 {
		t.Fatal("no failover switches recorded")
	}
}

func TestMixedLoadDegradesCostSchemesMore(t *testing.T) {
	tr := shortAzure(9, 225, 4*time.Minute)
	m := model.MustByName("DenseNet 121")
	clean := Run(Config{Model: m, Trace: tr, Scheme: NewMoleculeCost()})
	mixed := Run(Config{
		Model: m, Trace: tr, Scheme: NewMoleculeCost(),
		HostFactorCPU: 1.72, HostFactorGPU: 1.11,
	})
	if mixed.SLOCompliance >= clean.SLOCompliance {
		t.Fatalf("host contention did not hurt: %.3f vs %.3f",
			mixed.SLOCompliance, clean.SLOCompliance)
	}
	perfMixed := Run(Config{
		Model: m, Trace: tr, Scheme: NewMoleculePerf(),
		HostFactorCPU: 1.72, HostFactorGPU: 1.11,
	})
	if perfMixed.SLOCompliance < mixed.SLOCompliance {
		t.Fatalf("(P) scheme %.3f hurt more than ($) %.3f by host contention",
			perfMixed.SLOCompliance, mixed.SLOCompliance)
	}
}

// TestPinnedSchemesWarmStartOnPin pins that a pinned scheme's hardware rule
// also picks the warm-start node: the run opens on the pin and never holds
// anything else.
func TestPinnedSchemesWarmStartOnPin(t *testing.T) {
	m60, _ := hardware.ByName("M60")
	top := hardware.MostPerformant(hardware.GPU)
	tr := shortAzure(4, 100, time.Minute)
	for _, tc := range []struct {
		scheme Scheme
		pin    hardware.Spec
	}{
		{NewPaldiaPinned(m60), m60},
		{NewOfflineHybrid(m60, 0.3), m60},
		{NewMPSOnly(m60, "(M60)"), m60},
		{NewTimeSharedOnly(m60, "(M60)"), m60},
		{NewMoleculePerf(), top},
		{NewINFlessLlamaPerf(), top},
	} {
		res := Run(Config{Model: model.MustByName("SENet 18"), Trace: tr, Scheme: tc.scheme})
		if len(res.SwitchHistory) == 0 || res.SwitchHistory[0].Spec != tc.pin.Name {
			t.Errorf("%s: warm start %v, want %s", tc.scheme.Name(), res.SwitchHistory, tc.pin.Name)
		}
		if _, ok := res.HeldBySpec[tc.pin.Name]; !ok || len(res.HeldBySpec) != 1 {
			t.Errorf("%s: held %v, want only %s", tc.scheme.Name(), res.HeldBySpec, tc.pin.Name)
		}
	}
}

func TestHybridBeatsPureSharingUnderExhaustion(t *testing.T) {
	// Fig. 13a's mechanism at miniature scale: a Poisson flood right at the
	// V100's serial capacity. Time sharing alone collapses into queueing;
	// the hybrid rides spatial headroom.
	m := model.MustByName("GoogleNet")
	v100 := hardware.MostPerformant(hardware.GPU)
	rate := 4760.0
	tr := trace.Poisson(sim.NewRNG(11), rate, 2*time.Minute)
	run := func(s Scheme) Result {
		return Run(Config{Model: m, Trace: tr, Scheme: s})
	}
	molecule := run(NewMoleculePerf())
	paldia := run(NewPaldiaPinned(v100))
	if paldia.SLOCompliance <= molecule.SLOCompliance {
		t.Fatalf("hybrid %.3f not above time-share-only %.3f under exhaustion",
			paldia.SLOCompliance, molecule.SLOCompliance)
	}
}

func TestScaleOutServesBeyondSingleNode(t *testing.T) {
	m := model.MustByName("GoogleNet")
	v100 := hardware.MostPerformant(hardware.GPU)
	tr := trace.Poisson(sim.NewRNG(8), 8500, 2*time.Minute) // ~1.8x one V100
	run := func(maxNodes int) Result {
		return Run(Config{
			Model: m, Trace: tr, Scheme: NewPaldiaPinned(v100), MaxNodes: maxNodes,
		})
	}
	single := run(1)
	scaled := run(4)
	if single.SLOCompliance > 0.5 {
		t.Fatalf("single node survived 1.8x capacity (%.2f); the test premise is wrong",
			single.SLOCompliance)
	}
	if scaled.SLOCompliance < 0.9 {
		t.Fatalf("scale-out compliance %.2f, want > 0.9", scaled.SLOCompliance)
	}
	if scaled.Cost <= single.Cost {
		t.Fatal("scale-out must cost more than a single node")
	}
	if scaled.Requests != tr.Count() || single.Requests != tr.Count() {
		t.Fatal("requests lost")
	}
}

func TestScaleOutDisabledByDefault(t *testing.T) {
	// MaxNodes unset must keep the paper's single-node behaviour: exactly
	// one node type residency entry per held spec and identical results to
	// MaxNodes=1.
	tr := shortAzure(12, 200, 2*time.Minute)
	m := model.MustByName("ResNet 50")
	a := Run(Config{Model: m, Trace: tr, Scheme: NewPaldia()})
	b := Run(Config{Model: m, Trace: tr, Scheme: NewPaldia(), MaxNodes: 1})
	if a.SLOCompliance != b.SLOCompliance || a.Cost != b.Cost {
		t.Fatalf("MaxNodes default differs from 1: %+v vs %+v", a, b)
	}
}

func TestColdStartAccounting(t *testing.T) {
	tr := shortAzure(6, 450, 4*time.Minute)
	res := Run(Config{Model: model.MustByName("ResNet 50"), Trace: tr, Scheme: NewPaldia()})
	if res.Boots < uint64(res.Switches) {
		t.Fatalf("boots %d below switches %d — every new node needs containers",
			res.Boots, res.Switches)
	}
	if res.SyncColdStarts > res.Boots {
		t.Fatal("sync cold starts exceed total boots")
	}
}

func TestPluggablePredictor(t *testing.T) {
	tr := shortAzure(13, 200, 2*time.Minute)
	m := model.MustByName("ResNet 50")
	// A deliberately terrible predictor (always zero) must change behaviour
	// versus the default EWMA, proving the knob is wired through.
	zero := Run(Config{
		Model: m, Trace: tr, Scheme: NewPaldia(),
		NewPredictor: func() predict.Predictor { return predict.Static{RPS: 0} },
	})
	def := Run(Config{Model: m, Trace: tr, Scheme: NewPaldia()})
	if zero.Cost == def.Cost && zero.SLOCompliance == def.SLOCompliance {
		t.Fatal("custom predictor had no effect")
	}
	if zero.Requests != tr.Count() {
		t.Fatal("requests lost with custom predictor")
	}
}

// Property: every request of every trace is recorded exactly once, across
// random (model, peak, scheme, failure) configurations.
func TestConservationAcrossConfigsProperty(t *testing.T) {
	models := model.Catalog()
	schemes := []func() Scheme{
		NewPaldia, NewOracle, NewINFlessLlamaCost, NewINFlessLlamaPerf,
		NewMoleculeCost, NewMoleculePerf,
	}
	f := func(seed uint32, mIdx, sIdx uint8, peakRaw uint16, failures bool) bool {
		m := models[int(mIdx)%len(models)]
		peak := float64(peakRaw%500) + 5
		tr := trace.Azure(sim.NewRNG(uint64(seed)), peak, 90*time.Second)
		cfg := Config{
			Model:  m,
			Trace:  tr,
			Scheme: schemes[int(sIdx)%len(schemes)](),
		}
		if failures {
			cfg.FailureEvery = 45 * time.Second
			cfg.FailureDuration = 20 * time.Second
		}
		res := Run(cfg)
		return res.Requests == tr.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchHistoryRecorded(t *testing.T) {
	tr := shortAzure(42, 450, 5*time.Minute)
	res := Run(Config{Model: model.MustByName("ResNet 50"), Trace: tr, Scheme: NewPaldia()})
	if len(res.SwitchHistory) != res.Switches+1 {
		t.Fatalf("history has %d entries for %d switches (+1 warm start)",
			len(res.SwitchHistory), res.Switches)
	}
	if res.SwitchHistory[0].At != 0 {
		t.Fatal("history must start at t=0")
	}
	for i := 1; i < len(res.SwitchHistory); i++ {
		if res.SwitchHistory[i].At < res.SwitchHistory[i-1].At {
			t.Fatal("history not time-ordered")
		}
	}
	// Residency derived from the history must cover every held node type.
	seen := map[string]bool{}
	for _, ev := range res.SwitchHistory {
		seen[ev.Spec] = true
	}
	for spec := range res.HeldBySpec {
		if !seen[spec] {
			t.Fatalf("held node type %s missing from history", spec)
		}
	}
}

// Failure of the most performant node — the escalation path's last resort —
// must still fail over (to the "next best" spec, per FailoverSpec) rather
// than wedging the run: every request is accounted for and serving resumes
// on different hardware.
func TestLastCapableNodeFailureFailsOver(t *testing.T) {
	tr := shortAzure(13, 225, 3*time.Minute)
	top := hardware.MostPerformant(hardware.GPU)
	res := Run(Config{
		Model:           model.MustByName("DenseNet 121"),
		Trace:           tr,
		Scheme:          NewMoleculePerf(), // pinned to the top GPU: the failed node IS the last capable one
		FailureEvery:    time.Minute,
		FailureDuration: 30 * time.Second,
	})
	if res.FailuresInjected == 0 {
		t.Fatal("no failures injected")
	}
	if res.Requests != tr.Count() {
		t.Fatalf("lost requests: %d of %d", res.Requests, tr.Count())
	}
	next := FailoverSpec(top)
	if next.Name == top.Name {
		t.Fatalf("FailoverSpec returned the failed spec %s", top.Name)
	}
	if res.HeldBySpec[next.Name] <= 0 {
		t.Fatalf("failover target %s never held; residency: %v", next.Name, res.HeldBySpec)
	}
	if res.SLOCompliance <= 0 {
		t.Fatal("no request ever met the SLO after the top node failed")
	}
}

// TestScaleOutReplicasMatchPrimary steps scale-out runs whose primary
// switches type while replicas are still procuring, and checks every 100 ms
// that each serving replica runs the primary's node type: a replica ordered
// for the old type must be released when it lands, not serve beside the new
// primary. Seeds 6 and 7 order only such replicas; seed 5's replicas serve.
func TestScaleOutReplicasMatchPrimary(t *testing.T) {
	m := model.MustByName("BERT")
	served := 0
	for _, seed := range []uint64{5, 6, 7} {
		ru := Start(Config{
			Model:    m,
			Trace:    trace.Azure(sim.NewRNG(seed), 2*m.DefaultPeakRPS(), 6*time.Minute),
			Scheme:   NewPaldia(),
			MaxNodes: 4,
		})
		r := ru.r
		ordered := map[*slot]bool{}
		for now := time.Duration(0); now < ru.Horizon(); now += 100 * time.Millisecond {
			ru.StepTo(now)
			for _, s := range r.slots[1:] {
				ordered[s] = true
				if s.sn == nil {
					continue
				}
				served++
				if s.sn.node.Spec != r.slots[0].sn.node.Spec {
					t.Fatalf("seed %d, %v: replica runs %s beside a %s primary",
						seed, now, s.sn.node.Spec.Name, r.slots[0].sn.node.Spec.Name)
				}
			}
		}
		ru.Finish()
		if len(ordered) == 0 {
			t.Errorf("seed %d: no replica was ever ordered; the test lost its coverage", seed)
		}
	}
	if served == 0 {
		t.Error("no replica ever served; the test lost its coverage")
	}
}
