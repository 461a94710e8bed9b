package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Seed-determinism contract: the same Config (trace realized from the same
// seed) run twice yields a byte-identical Result — every headline number,
// the full per-request record stream, the node-residency breakdown and the
// switch timeline — and byte-identical telemetry exports. CI runs this under
// -race -cpu 1,4, so any scheduling-order dependence or data race in the
// hot path breaks it loudly. Failure injection and the invariant checker are
// both on: neither may introduce nondeterminism.
func TestRunIsSeedDeterministic(t *testing.T) {
	type snapshot struct {
		res    Result
		csv    bytes.Buffer
		spans  bytes.Buffer
		series bytes.Buffer
	}
	run := func() *snapshot {
		rec, ss := telemetry.NewRecorder(), telemetry.NewSeriesSet()
		chk := invariant.New()
		var s snapshot
		s.res = Run(Config{
			Model:           model.MustByName("ResNet 50"),
			Trace:           trace.Azure(sim.NewRNG(42), 250, 2*time.Minute),
			Scheme:          NewPaldia(),
			Seed:            42,
			Telemetry:       telemetry.Combine(rec, ss),
			SampleEvery:     time.Second,
			FailureEvery:    40 * time.Second,
			FailureDuration: 10 * time.Second,
			Invariants:      chk,
		})
		if err := chk.Err(); err != nil {
			t.Fatalf("determinism run not invariant-clean:\n%v", err)
		}
		if err := s.res.Collector.WriteCSV(&s.csv); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteSpansJSONL(&s.spans); err != nil {
			t.Fatal(err)
		}
		if err := ss.WriteCSV(&s.series); err != nil {
			t.Fatal(err)
		}
		return &s
	}
	a, b := run(), run()

	// Result fields, with the Collector pointer masked: its contents are
	// compared byte-for-byte through the CSV export below.
	ra, rb := a.res, b.res
	ra.Collector, rb.Collector = nil, nil
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("Results differ between identically seeded runs:\n%+v\nvs\n%+v", ra, rb)
	}
	if a.res.FailuresInjected == 0 {
		t.Error("failure injection never fired; the determinism check lost coverage")
	}
	if !bytes.Equal(a.csv.Bytes(), b.csv.Bytes()) {
		t.Error("per-request CSV differs between identically seeded runs")
	}
	if !bytes.Equal(a.spans.Bytes(), b.spans.Bytes()) {
		t.Error("spans JSONL differs between identically seeded runs")
	}
	if !bytes.Equal(a.series.Bytes(), b.series.Bytes()) {
		t.Error("series CSV differs between identically seeded runs")
	}
	if a.csv.Len() == 0 || a.spans.Len() == 0 || a.series.Len() == 0 {
		t.Fatalf("exports empty: csv=%d spans=%d series=%d bytes",
			a.csv.Len(), a.spans.Len(), a.series.Len())
	}
}

// Multi-tenant runs carry the same contract: identical seeds, identical
// per-tenant results.
func TestRunMultiIsSeedDeterministic(t *testing.T) {
	run := func() MultiResult {
		chk := invariant.New()
		res := RunMulti(MultiConfig{
			Workloads: []Workload{
				{Model: model.MustByName("ResNet 50"), Trace: trace.Azure(sim.NewRNG(5), 150, time.Minute)},
				{Model: model.MustByName("MobileNet"), Trace: trace.Azure(sim.NewRNG(6), 200, time.Minute)},
			},
			Scheme:     NewPaldia(),
			Invariants: chk,
		})
		if err := chk.Err(); err != nil {
			t.Fatalf("multi-tenant determinism run not invariant-clean:\n%v", err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.PerWorkload) != len(b.PerWorkload) {
		t.Fatalf("tenant counts differ: %d vs %d", len(a.PerWorkload), len(b.PerWorkload))
	}
	for i := range a.PerWorkload {
		var ca, cb bytes.Buffer
		if err := a.PerWorkload[i].WriteCSV(&ca); err != nil {
			t.Fatal(err)
		}
		if err := b.PerWorkload[i].WriteCSV(&cb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
			t.Errorf("tenant %d: per-request CSV differs between identically seeded runs", i)
		}
		if ca.Len() == 0 {
			t.Errorf("tenant %d: empty record stream", i)
		}
	}
	ra, rb := a, b
	ra.PerWorkload, rb.PerWorkload = nil, nil
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("MultiResults differ between identically seeded runs:\n%+v\nvs\n%+v", ra, rb)
	}
}
