package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func multiWorkloads(seed uint64, dur time.Duration) []Workload {
	rng := sim.NewRNG(seed)
	return []Workload{
		{Model: model.MustByName("SENet 18"), Trace: trace.Stable(rng.Child("a"), 300, dur)},
		{Model: model.MustByName("DenseNet 121"), Trace: trace.Stable(rng.Child("b"), 80, dur)},
	}
}

func TestRunMultiServesAllTenants(t *testing.T) {
	ws := multiWorkloads(1, 2*time.Minute)
	res := RunMulti(MultiConfig{Workloads: ws, Scheme: NewPaldia()})
	if len(res.PerWorkload) != 2 {
		t.Fatalf("collectors = %d, want 2", len(res.PerWorkload))
	}
	for i, c := range res.PerWorkload {
		if c.Count() != ws[i].Trace.Count() {
			t.Fatalf("tenant %d served %d of %d", i, c.Count(), ws[i].Trace.Count())
		}
	}
	if res.SLOCompliance < 0.9 {
		t.Fatalf("combined compliance %.3f too low for stable traffic", res.SLOCompliance)
	}
	if res.Cost <= 0 {
		t.Fatal("zero cost")
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	cfg := MultiConfig{Workloads: multiWorkloads(2, time.Minute), Scheme: NewPaldia()}
	a := RunMulti(cfg)
	// Traces are shared pointers, so rebuild the config identically.
	b := RunMulti(MultiConfig{Workloads: multiWorkloads(2, time.Minute), Scheme: NewPaldia()})
	if a.SLOCompliance != b.SLOCompliance || a.Cost != b.Cost || a.Switches != b.Switches {
		t.Fatalf("multi-run not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunMultiAggregateHardwareCoversAllTenants(t *testing.T) {
	// A heavy LLM tenant forces brawnier shared hardware than the light
	// vision tenant alone would need.
	rng := sim.NewRNG(3)
	dur := 2 * time.Minute
	light := Workload{Model: model.MustByName("MobileNet"), Trace: trace.Stable(rng.Child("l"), 50, dur)}
	heavy := Workload{Model: model.MustByName("BERT"), Trace: trace.Stable(rng.Child("h"), 6, dur)}

	lightOnly := RunMulti(MultiConfig{Workloads: []Workload{light}, Scheme: NewPaldia()})
	both := RunMulti(MultiConfig{Workloads: []Workload{light, heavy}, Scheme: NewPaldia()})

	costOf := func(held map[string]time.Duration) float64 {
		total := 0.0
		for name, d := range held {
			hw, _ := hardware.ByName(name)
			total += hw.CostPerSecond() * d.Seconds()
		}
		return total
	}
	if costOf(both.HeldBySpec) <= costOf(lightOnly.HeldBySpec) {
		t.Fatalf("adding a heavy tenant did not raise hardware spend: %v vs %v",
			both.HeldBySpec, lightOnly.HeldBySpec)
	}
	if both.SLOCompliance < 0.9 {
		t.Fatalf("combined compliance %.3f with heavy tenant", both.SLOCompliance)
	}
}

func TestRunMultiPinnedNode(t *testing.T) {
	m60, _ := hardware.ByName("M60")
	res := RunMulti(MultiConfig{
		Workloads: multiWorkloads(4, time.Minute),
		Scheme:    NewOfflineHybrid(m60, 0.3),
	})
	if len(res.HeldBySpec) != 1 {
		t.Fatalf("pinned multi-run held %v", res.HeldBySpec)
	}
}

func TestRunMultiInterferenceAcrossTenants(t *testing.T) {
	// Co-located tenants on a pinned cheap GPU must show higher tail
	// latency than either tenant alone on the same node: cross-model
	// contention is modelled.
	m60, _ := hardware.ByName("M60")
	dur := 2 * time.Minute
	mk := func(seed uint64) []Workload { return multiWorkloads(seed, dur) }

	alone := RunMulti(MultiConfig{
		Workloads: mk(5)[:1],
		Scheme:    NewMPSOnly(m60, "(M60)"),
	})
	both := RunMulti(MultiConfig{
		Workloads: mk(5),
		Scheme:    NewMPSOnly(m60, "(M60)"),
	})
	p99Alone := alone.PerWorkload[0].Percentile(99)
	p99Both := both.PerWorkload[0].Percentile(99)
	if p99Both <= p99Alone {
		t.Fatalf("co-tenancy did not raise P99: alone %v, both %v", p99Alone, p99Both)
	}
}

// TestRunMultiOneWorkloadEqualsRun pins that RunMulti is the single-workload
// runtime with N tenants: one workload through RunMulti must reproduce Run on
// the same model, trace and scheme — every per-request record, cost,
// switches, residency, and the span and event exports byte for byte. The
// schemes cover the forecast-driven path (Paldia), the clairvoyant one
// (Oracle) and pinned hardware.
func TestRunMultiOneWorkloadEqualsRun(t *testing.T) {
	m60, _ := hardware.ByName("M60")
	for _, tc := range []struct {
		name   string
		scheme func() Scheme
	}{
		{"paldia", NewPaldia},
		{"oracle", NewOracle},
		{"pinned-m60", func() Scheme { return NewOfflineHybrid(m60, 0.3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := model.MustByName("ResNet 50")
			tr := trace.Azure(sim.NewRNG(21), 250, 90*time.Second)
			type out struct {
				records       []metrics.Record
				cost          float64
				switches      int
				held          map[string]time.Duration
				spans, events bytes.Buffer
			}
			export := func(o *out, rec *telemetry.Recorder) {
				if err := rec.WriteSpansJSONL(&o.spans); err != nil {
					t.Fatal(err)
				}
				if err := rec.WriteEventsJSONL(&o.events); err != nil {
					t.Fatal(err)
				}
			}

			var single out
			rec := telemetry.NewRecorder()
			res := Run(Config{Model: m, Trace: tr, Scheme: tc.scheme(),
				Telemetry: rec, Invariants: invariant.New()})
			single.records = res.Collector.Records()
			single.cost, single.switches, single.held = res.Cost, res.Switches, res.HeldBySpec
			export(&single, rec)

			var multi out
			rec = telemetry.NewRecorder()
			mres := RunMulti(MultiConfig{Workloads: []Workload{{Model: m, Trace: tr}},
				Scheme: tc.scheme(), Telemetry: rec, Invariants: invariant.New()})
			multi.records = mres.PerWorkload[0].Records()
			multi.cost, multi.switches, multi.held = mres.Cost, mres.Switches, mres.HeldBySpec
			export(&multi, rec)

			if len(single.records) == 0 {
				t.Fatal("run recorded no requests")
			}
			if !reflect.DeepEqual(single.records, multi.records) {
				t.Fatalf("per-request records differ (%d vs %d)", len(single.records), len(multi.records))
			}
			if single.cost != multi.cost || single.switches != multi.switches {
				t.Fatalf("cost/switches differ: Run %v/%d, RunMulti %v/%d",
					single.cost, single.switches, multi.cost, multi.switches)
			}
			if !reflect.DeepEqual(single.held, multi.held) {
				t.Fatalf("HeldBySpec differs: Run %v, RunMulti %v", single.held, multi.held)
			}
			if !bytes.Equal(single.spans.Bytes(), multi.spans.Bytes()) {
				t.Fatal("span JSONL differs")
			}
			if !bytes.Equal(single.events.Bytes(), multi.events.Bytes()) {
				t.Fatal("event JSONL differs")
			}
		})
	}
}

func TestMultiConfigValidate(t *testing.T) {
	valid := func() MultiConfig {
		return MultiConfig{Workloads: multiWorkloads(1, time.Minute), Scheme: NewPaldia()}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, tc := range []struct {
		name  string
		tweak func(*MultiConfig)
		want  string
	}{
		{"no workloads", func(c *MultiConfig) { c.Workloads = nil }, "Workloads is empty"},
		{"redundancy scheme", func(c *MultiConfig) { c.Scheme = NewPaldiaCloneK(2, false) },
			"does not serve redundancy schemes"},
		{"workload without model", func(c *MultiConfig) { c.Workloads[1].Model = model.Spec{} },
			"workload 1: Model is unset"},
		{"workload without arrivals", func(c *MultiConfig) { c.Workloads[0].Trace = nil },
			"workload 0: Trace and Stream are both nil"},
		{"clairvoyant over a lazy stream", func(c *MultiConfig) {
			c.Scheme = NewOracle()
			c.Workloads[0].Trace = nil
			c.Workloads[0].Stream = trace.PoissonCurve(sim.NewRNG(1), 50, time.Minute).Stream(sim.NewRNG(1))
		}, "workload 0: clairvoyant scheme needs a materialized trace"},
		{"unknown forecaster", func(c *MultiConfig) { c.Forecaster = "tea-leaves" }, "tea-leaves"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := valid()
			tc.tweak(&c)
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
