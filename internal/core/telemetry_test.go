package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// telemetryRun executes one seeded run with a fresh recorder and series set
// attached. The trace is realized from the seed inside, so two calls are
// fully independent end to end.
func telemetryRun(t *testing.T, seed uint64) (*telemetry.Recorder, *telemetry.SeriesSet, Result) {
	t.Helper()
	rec, ss := telemetry.NewRecorder(), telemetry.NewSeriesSet()
	res := Run(Config{
		Model:       model.MustByName("ResNet 50"),
		Trace:       trace.Azure(sim.NewRNG(seed), 300, 90*time.Second),
		Scheme:      NewPaldia(),
		Seed:        seed,
		Telemetry:   telemetry.Combine(rec, ss),
		SampleEvery: time.Second,
	})
	return rec, ss, res
}

// Two identically seeded runs must produce byte-identical exports — the
// determinism contract every telemetry artifact advertises.
func TestTelemetryExportsAreDeterministic(t *testing.T) {
	type export struct {
		spans, events, series, chrome bytes.Buffer
	}
	dump := func() *export {
		rec, ss, _ := telemetryRun(t, 42)
		var e export
		if err := rec.WriteSpansJSONL(&e.spans); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteEventsJSONL(&e.events); err != nil {
			t.Fatal(err)
		}
		if err := ss.WriteCSV(&e.series); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteChromeTrace(&e.chrome); err != nil {
			t.Fatal(err)
		}
		return &e
	}
	a, b := dump(), dump()
	if !bytes.Equal(a.spans.Bytes(), b.spans.Bytes()) {
		t.Error("spans JSONL differs between identically seeded runs")
	}
	if !bytes.Equal(a.events.Bytes(), b.events.Bytes()) {
		t.Error("events JSONL differs between identically seeded runs")
	}
	if !bytes.Equal(a.series.Bytes(), b.series.Bytes()) {
		t.Error("series CSV differs between identically seeded runs")
	}
	if !bytes.Equal(a.chrome.Bytes(), b.chrome.Bytes()) {
		t.Error("Chrome trace differs between identically seeded runs")
	}
	if a.spans.Len() == 0 || a.series.Len() == 0 {
		t.Fatalf("exports empty: spans=%d series=%d bytes", a.spans.Len(), a.series.Len())
	}
}

// Spans must agree with the metrics.Collector's ground truth request by
// request: same population, same latency decomposition, components
// telescoping exactly to the end-to-end latency.
func TestTelemetrySpansMatchCollector(t *testing.T) {
	rec, _, res := telemetryRun(t, 7)
	spans := rec.Spans()
	if len(spans) != res.Requests {
		t.Fatalf("%d spans vs %d collector records", len(spans), res.Requests)
	}

	type key struct {
		arrival, latency, batchWait, cold, queue time.Duration
		failed                                   bool
	}
	seen := make(map[key]int, len(spans))
	for _, rc := range res.Collector.Records() {
		seen[key{rc.Arrival, rc.Latency, rc.BatchWait, rc.ColdStart, rc.QueueDelay, rc.Failed}]++
	}
	for _, s := range spans {
		if !s.Done() {
			t.Fatalf("span req=%d still open after the run", s.Req)
		}
		if sum := s.BatchWait() + s.ColdStart() + s.QueueDelay() + s.Exec(); sum != s.Latency() {
			t.Fatalf("req=%d components %v do not telescope to latency %v", s.Req, sum, s.Latency())
		}
		k := key{s.Arrived, s.Latency(), s.BatchWait(), s.ColdStart(), s.QueueDelay(), s.Failed}
		if seen[k] == 0 {
			t.Fatalf("span req=%d (%+v) has no matching collector record", s.Req, k)
		}
		seen[k]--
	}
}

// Attaching telemetry must not change the simulation trajectory at all:
// gauges read state through side-effect-free accessors, so every headline
// result is identical with the layer on or off.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	run := func(tel telemetry.Sink, every time.Duration) Result {
		return Run(Config{
			Model:       model.MustByName("ResNet 50"),
			Trace:       trace.Azure(sim.NewRNG(11), 300, 90*time.Second),
			Scheme:      NewPaldia(),
			Seed:        11,
			Telemetry:   tel,
			SampleEvery: every,
		})
	}
	plain := run(nil, 0)
	instr := run(telemetry.NewRecorder(), 250*time.Millisecond)

	if plain.Requests != instr.Requests || plain.FailedRequests != instr.FailedRequests {
		t.Fatalf("request counts differ: %d/%d vs %d/%d",
			plain.Requests, plain.FailedRequests, instr.Requests, instr.FailedRequests)
	}
	if plain.SLOCompliance != instr.SLOCompliance || plain.P50 != instr.P50 || plain.P99 != instr.P99 {
		t.Fatalf("latency stats differ: %v/%v/%v vs %v/%v/%v",
			plain.SLOCompliance, plain.P50, plain.P99, instr.SLOCompliance, instr.P50, instr.P99)
	}
	if plain.Cost != instr.Cost || plain.Boots != instr.Boots || plain.Switches != instr.Switches {
		t.Fatalf("cost/boots/switches differ: %v/%d/%d vs %v/%d/%d",
			plain.Cost, plain.Boots, plain.Switches, instr.Cost, instr.Boots, instr.Switches)
	}
}

// Node failures flow through spans: lost requests carry Failed and the
// span population still matches the collector exactly.
func TestTelemetrySpansUnderFailures(t *testing.T) {
	rec := telemetry.NewRecorder()
	res := Run(Config{
		Model:           model.MustByName("ResNet 50"),
		Trace:           trace.Azure(sim.NewRNG(3), 200, 60*time.Second),
		Scheme:          NewPaldia(),
		Seed:            3,
		Telemetry:       rec,
		FailureEvery:    25 * time.Second,
		FailureDuration: 10 * time.Second,
	})
	if res.FailuresInjected == 0 {
		t.Fatal("failure study injected nothing")
	}
	failed := 0
	for _, s := range rec.Spans() {
		if s.Failed {
			failed++
		}
	}
	if failed != res.FailedRequests {
		t.Fatalf("%d failed spans vs %d failed requests", failed, res.FailedRequests)
	}
	if len(rec.Spans()) != res.Requests {
		t.Fatalf("%d spans vs %d records", len(rec.Spans()), res.Requests)
	}
}

// Multi-tenant runs label spans with the workload index and keep the same
// span population per tenant as the per-tenant collectors.
func TestMultiTelemetrySpansPerTenant(t *testing.T) {
	rec := telemetry.NewRecorder()
	mres := RunMulti(MultiConfig{
		Workloads: []Workload{
			{Model: model.MustByName("ResNet 50"), Trace: trace.Azure(sim.NewRNG(5), 150, 45*time.Second)},
			{Model: model.MustByName("MobileNet"), Trace: trace.Azure(sim.NewRNG(6), 150, 45*time.Second)},
		},
		Scheme:    NewPaldia(),
		Telemetry: rec,
	})
	perTenant := map[int]int{}
	for _, s := range rec.Spans() {
		if !s.Done() {
			t.Fatalf("open span req=%d tenant=%d", s.Req, s.Tenant)
		}
		perTenant[s.Tenant]++
	}
	for i, col := range mres.PerWorkload {
		if perTenant[i] != col.Count() {
			t.Fatalf("tenant %d: %d spans vs %d records", i, perTenant[i], col.Count())
		}
	}
	checkPoolTenants(t, rec.Events(), len(mres.PerWorkload), false)

	// Predictive prewarms rarely fire on the GPU runs above; language models
	// pinned to a CPU node (long batch residence) make both tenants' pools
	// grow.
	cpu, _ := hardware.ByName("c6i.4xlarge")
	rec = telemetry.NewRecorder()
	mres = RunMulti(MultiConfig{
		Workloads: []Workload{
			{Model: model.MustByName("BERT"), Trace: trace.Azure(sim.NewRNG(5), 20, 45*time.Second)},
			{Model: model.MustByName("DistilBERT"), Trace: trace.Azure(sim.NewRNG(6), 20, 45*time.Second)},
		},
		Scheme:    NewPaldiaPinned(cpu),
		Telemetry: rec,
	})
	checkPoolTenants(t, rec.Events(), len(mres.PerWorkload), true)
}

// checkPoolTenants asserts that pool and autoscaler events name the tenant
// whose pool emitted them. A predictive tick that grows a pool emits
// AutoscalePrewarm and then, from the very pool it grew, ContainerPrewarm at
// the same instant on the same node — so the two must agree on the tenant.
// With wantPrewarms, every tenant must show up in the autoscaler's stream.
func checkPoolTenants(t *testing.T, events []telemetry.Event, tenants int, wantPrewarms bool) {
	t.Helper()
	prewarmed := map[int]bool{}
	for i, e := range events {
		switch e.Kind {
		case telemetry.ContainerWait, telemetry.ContainerBoot, telemetry.ContainerPrewarm,
			telemetry.ContainerReaped:
			if e.Tenant < 0 || e.Tenant >= tenants {
				t.Fatalf("pool event %v names tenant %d", e.Kind, e.Tenant)
			}
		case telemetry.AutoscalePrewarm:
			prewarmed[e.Tenant] = true
			j := i + 1
			for j < len(events) && events[j].Kind != telemetry.ContainerPrewarm {
				j++
			}
			if j == len(events) {
				t.Fatalf("autoscale prewarm at %v grew no pool", e.At)
			}
			p := events[j]
			if p.At != e.At || p.Node != e.Node || p.Tenant != e.Tenant {
				t.Fatalf("autoscale prewarm (t=%v node=%d tenant=%d) but pool prewarm (t=%v node=%d tenant=%d)",
					e.At, e.Node, e.Tenant, p.At, p.Node, p.Tenant)
			}
		}
	}
	for i := 0; wantPrewarms && i < tenants; i++ {
		if !prewarmed[i] {
			t.Fatalf("no autoscale prewarm for tenant %d (seen %v)", i, prewarmed)
		}
	}
}

// spanOnlySink is a span consumer that declines lifecycle events: it counts
// every event it is sent by kind and every span it is handed.
type spanOnlySink struct {
	lifecycle, other, arrivals, spans int
}

func (s *spanOnlySink) Event(e telemetry.Event) {
	if e.Kind.Lifecycle() {
		s.lifecycle++
	} else {
		s.other++
	}
}
func (s *spanOnlySink) Lifecycle() bool      { return false }
func (s *spanOnlySink) Arrive()              { s.arrivals++ }
func (s *spanOnlySink) Span(*telemetry.Span) { s.spans++ }

// Lifecycle events are opt-in: a run whose only sink takes spans sees no
// lifecycle-kind event at all, yet every request's span and every control
// and sample event; attaching an events writer next to the span writer
// leaves the span bytes untouched.
func TestLifecycleEventsAreOptIn(t *testing.T) {
	cfg := func(seed uint64, tel telemetry.Sink) Config {
		return Config{
			Model:        model.MustByName("ResNet 50"),
			Trace:        trace.Azure(sim.NewRNG(seed), 250, time.Minute),
			Scheme:       NewPaldia(),
			Telemetry:    tel,
			SampleEvery:  time.Second,
			FailureEvery: 20 * time.Second, FailureDuration: 5 * time.Second,
		}
	}
	for _, scheme := range []Scheme{NewPaldia(), NewPaldiaCloneK(2, false), NewPaldiaHedged(90)} {
		sink := &spanOnlySink{}
		c := cfg(4, sink)
		c.Scheme = scheme
		res := Run(c)
		if sink.lifecycle != 0 {
			t.Errorf("%s: span-only sink was sent %d lifecycle events", scheme.Name(), sink.lifecycle)
		}
		if sink.spans != res.Requests || sink.arrivals != res.Requests || sink.other == 0 {
			t.Errorf("%s: %d spans, %d arrivals, %d other events for %d requests",
				scheme.Name(), sink.spans, sink.arrivals, sink.other, res.Requests)
		}
	}

	var plain, withEvents, events bytes.Buffer
	a := telemetry.NewStreamWriter(&plain, nil)
	Run(cfg(5, a))
	b := telemetry.NewStreamWriter(&withEvents, &events)
	Run(cfg(5, b))
	for _, w := range []*telemetry.StreamWriter{a, b} {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if plain.Len() == 0 || events.Len() == 0 {
		t.Fatalf("empty exports: spans=%d events=%d bytes", plain.Len(), events.Len())
	}
	if !bytes.Equal(plain.Bytes(), withEvents.Bytes()) {
		t.Error("attaching an events writer changed the span bytes")
	}
}
