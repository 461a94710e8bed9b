package shard

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

const (
	testSeed    = 42
	testTenants = 3
	testRPS     = 150
	testDur     = 90 * time.Second
)

// laneConfigs builds the multi-tenant grid under test: one lane per tenant,
// each streaming its share of a partitioned Azure curve, with telemetry into
// the MergeWriter's lane sinks and a fresh invariant checker per lane.
// Everything is derived from the seed alone, so two calls produce identical
// simulations.
func laneConfigs(mode core.MetricsMode, mw *telemetry.MergeWriter) ([]core.Config, []*invariant.Checker) {
	curve := trace.AzureCurve(sim.NewRNG(testSeed), testRPS, testDur)
	parts := curve.Partition(testTenants)
	cfgs := make([]core.Config, testTenants)
	checks := make([]*invariant.Checker, testTenants)
	for i, lane := range parts {
		checks[i] = invariant.New()
		cfgs[i] = core.Config{
			Model:       model.MustByName("ResNet 50"),
			Stream:      lane.Stream(sim.NewRNG(testSeed)),
			Scheme:      core.NewPaldia(),
			Seed:        testSeed,
			Metrics:     mode,
			Telemetry:   mw.Lane(i),
			SampleEvery: time.Second,
			Invariants:  checks[i],
		}
	}
	return cfgs, checks
}

type gridSnapshot struct {
	agg      core.Result
	lanes    []core.Result
	csv      bytes.Buffer
	spans    bytes.Buffer
	events   bytes.Buffer
	series   bytes.Buffer
	onlines  []metrics.Snapshot
	aggOn    metrics.Snapshot
	maxLag   time.Duration
	barriers int
}

// runGrid executes the grid at the given worker count and captures every
// output that must be worker-count-independent. The merge writer has an
// events output, so event lines and samples, not just spans, are drained
// while the lanes step when shards >= 2.
func runGrid(t *testing.T, mode core.MetricsMode, shards int) *gridSnapshot {
	t.Helper()
	s := &gridSnapshot{}
	mw := telemetry.NewMergeWriter(&s.spans, &s.events, testTenants)
	cfgs, checks := laneConfigs(mode, mw)
	board := NewVTBoard(testTenants)
	la := DefaultLookahead()
	s.lanes = Run(cfgs, Options{
		Shards:    shards,
		Lookahead: la,
		Merge:     mw,
		Board:     board,
		OnBarrier: func(barrier time.Duration) {
			s.barriers++
			if lag := board.Spread(); lag > s.maxLag {
				s.maxLag = lag
			}
		},
	})
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mw.Series().WriteCSV(&s.series); err != nil {
		t.Fatal(err)
	}
	for i, chk := range checks {
		if err := chk.Err(); err != nil {
			t.Fatalf("lane %d not invariant-clean at shards=%d:\n%v", i, shards, err)
		}
	}
	s.agg = Aggregate(s.lanes, core.DefaultSLO)
	if s.agg.Collector != nil {
		if err := s.agg.Collector.WriteCSV(&s.csv); err != nil {
			t.Fatal(err)
		}
	}
	for i := range s.lanes {
		if on := s.lanes[i].Online; on != nil {
			s.onlines = append(s.onlines, on.Snapshot())
		}
	}
	if s.agg.Online != nil {
		s.aggOn = s.agg.Online.Snapshot()
	}
	return s
}

// scrub drops the aggregator pointers so Results compare by value.
func scrub(rs []core.Result) []core.Result {
	out := make([]core.Result, len(rs))
	for i, r := range rs {
		r.Collector, r.Online = nil, nil
		out[i] = r
	}
	return out
}

// The tentpole invariant: a multi-tenant grid produces byte-identical output
// at every worker count — same per-lane Results, same aggregate, same merged
// per-request CSV, spans JSONL, events JSONL and series CSV — because workers
// only change wall-clock scheduling, never what any lane computes or the
// merge order.
func TestShardedDeterministicAcrossWorkerCounts(t *testing.T) {
	base := runGrid(t, core.MetricsExact, 1)
	if base.agg.Requests == 0 {
		t.Fatal("grid served no requests; test is vacuous")
	}
	if base.csv.Len() == 0 || base.spans.Len() == 0 || base.events.Len() == 0 || base.series.Len() == 0 {
		t.Fatalf("empty exports: csv=%d spans=%d events=%d series=%d",
			base.csv.Len(), base.spans.Len(), base.events.Len(), base.series.Len())
	}
	for _, shards := range []int{2, 4, 7} {
		got := runGrid(t, core.MetricsExact, shards)
		if !reflect.DeepEqual(scrub(got.lanes), scrub(base.lanes)) {
			t.Errorf("shards=%d: per-lane Results differ from shards=1", shards)
		}
		ga, ba := got.agg, base.agg
		ga.Collector, ba.Collector = nil, nil
		if !reflect.DeepEqual(ga, ba) {
			t.Errorf("shards=%d: aggregate differs from shards=1:\n%+v\nvs\n%+v",
				shards, ga, ba)
		}
		if !bytes.Equal(got.csv.Bytes(), base.csv.Bytes()) {
			t.Errorf("shards=%d: merged per-request CSV differs from shards=1", shards)
		}
		sameTelemetry(t, shards, got, base)
		if got.maxLag > DefaultLookahead() {
			t.Errorf("shards=%d: barrier lag %v exceeds lookahead %v",
				shards, got.maxLag, DefaultLookahead())
		}
		if got.barriers != base.barriers {
			t.Errorf("shards=%d: %d barriers vs %d at shards=1",
				shards, got.barriers, base.barriers)
		}
	}
}

// sameTelemetry reports each merged telemetry export of got that differs
// from base's.
func sameTelemetry(t *testing.T, shards int, got, base *gridSnapshot) {
	t.Helper()
	for _, e := range []struct {
		name      string
		got, base *bytes.Buffer
	}{
		{"spans JSONL", &got.spans, &base.spans},
		{"events JSONL", &got.events, &base.events},
		{"series CSV", &got.series, &base.series},
	} {
		if !bytes.Equal(e.got.Bytes(), e.base.Bytes()) {
			t.Errorf("shards=%d: merged %s differs from shards=1", shards, e.name)
		}
	}
}

// The same invariant on the constant-memory path: Online snapshots — the
// whole streaming state, sketch buckets included — are identical at every
// worker count, as is the sketch-merged aggregate.
func TestShardedDeterministicOnlineAggregation(t *testing.T) {
	base := runGrid(t, core.MetricsOnline, 1)
	if len(base.onlines) != testTenants || base.aggOn.Count == 0 {
		t.Fatalf("online path not exercised: %d lane snapshots, agg count %d",
			len(base.onlines), base.aggOn.Count)
	}
	for _, shards := range []int{2, 4, 7} {
		got := runGrid(t, core.MetricsOnline, shards)
		if !reflect.DeepEqual(scrub(got.lanes), scrub(base.lanes)) {
			t.Errorf("shards=%d: per-lane Results differ from shards=1", shards)
		}
		if !reflect.DeepEqual(got.onlines, base.onlines) {
			t.Errorf("shards=%d: lane Online snapshots differ from shards=1", shards)
		}
		if !reflect.DeepEqual(got.aggOn, base.aggOn) {
			t.Errorf("shards=%d: merged Online snapshot differs from shards=1", shards)
		}
		sameTelemetry(t, shards, got, base)
	}
}

// A one-lane grid through the sharded executor is byte-identical to a plain
// core.Run — Result, CSV, and spans — at any worker count. This anchors the
// sharded path to the legacy single-lane path end to end.
func TestShardedSingleLaneDeterministicMatchesCoreRun(t *testing.T) {
	mkCfg := func(sink telemetry.Sink) core.Config {
		return core.Config{
			Model:       model.MustByName("ResNet 50"),
			Trace:       trace.Azure(sim.NewRNG(testSeed), testRPS, testDur),
			Scheme:      core.NewPaldia(),
			Seed:        testSeed,
			Telemetry:   sink,
			SampleEvery: time.Second,
		}
	}

	var plainSpans bytes.Buffer
	sw := telemetry.NewStreamWriter(&plainSpans, nil)
	plain := core.Run(mkCfg(sw))
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	var shardSpans bytes.Buffer
	mw := telemetry.NewMergeWriter(&shardSpans, nil, 1)
	got := Run([]core.Config{mkCfg(mw.Lane(0))}, Options{Shards: 4})
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d results", len(got))
	}

	a, b := plain, got[0]
	var ac, bc bytes.Buffer
	if err := a.Collector.WriteCSV(&ac); err != nil {
		t.Fatal(err)
	}
	if err := b.Collector.WriteCSV(&bc); err != nil {
		t.Fatal(err)
	}
	a.Collector, b.Collector = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sharded single-lane Result differs from core.Run:\n%+v\nvs\n%+v", a, b)
	}
	if !bytes.Equal(ac.Bytes(), bc.Bytes()) {
		t.Error("sharded single-lane CSV differs from core.Run")
	}
	if !bytes.Equal(plainSpans.Bytes(), shardSpans.Bytes()) {
		t.Error("sharded single-lane spans differ from core.Run + StreamWriter")
	}
	if plain.Requests == 0 {
		t.Fatal("no requests served; test is vacuous")
	}
}

// DefaultLookahead is the minimum cross-epoch latency in the stack: with the
// current constants that is the CPU cold start.
func TestDefaultLookahead(t *testing.T) {
	if got := DefaultLookahead(); got != 2*time.Second {
		t.Errorf("DefaultLookahead = %v, want 2s (CPU cold start)", got)
	}
}

// Aggregate on heterogeneous inputs: empty input and lane order stability.
func TestAggregateDeterministicLaneOrder(t *testing.T) {
	if got := Aggregate(nil, core.DefaultSLO); got.Requests != 0 {
		t.Errorf("empty aggregate: %+v", got)
	}
	mw := telemetry.NewMergeWriter(&bytes.Buffer{}, nil, testTenants)
	cfgs, _ := laneConfigs(core.MetricsExact, mw)
	res := Run(cfgs, Options{Shards: 2, Merge: mw})
	a := Aggregate(res, core.DefaultSLO)
	b := Aggregate(res, core.DefaultSLO)
	a.Collector, b.Collector = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeat aggregates differ:\n%+v\nvs\n%+v", a, b)
	}
	var sum int
	for _, r := range res {
		sum += r.Requests
	}
	if a.Requests != sum {
		t.Errorf("aggregate requests %d != lane sum %d", a.Requests, sum)
	}
}

// The worker gang survives lanes with different horizons and a worker count
// above the lane count.
func TestRunMoreWorkersThanLanes(t *testing.T) {
	mw := telemetry.NewMergeWriter(&bytes.Buffer{}, nil, 2)
	cfgs := make([]core.Config, 2)
	for i := range cfgs {
		cfgs[i] = core.Config{
			Model:  model.MustByName("ResNet 50"),
			Trace:  trace.Poisson(sim.NewRNG(uint64(i+1)), 40, time.Duration(i+1)*20*time.Second),
			Scheme: core.NewPaldia(),
			Seed:   uint64(i + 1),
		}
	}
	res := Run(cfgs, Options{Shards: 16, Merge: mw})
	for i, r := range res {
		if r.Requests == 0 {
			t.Errorf("lane %d served nothing", i)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
}

// The merge writer's per-lane high-water mark — paldia-sim's `peak K queued
// per lane` — is sampled where the lifecycle events it stands in for were
// seen, so it reads what it read when the writer assembled spans from those
// events. The pinned values were recorded that way, on the sharded grid with
// sampled gauges (whose queued samples only count once a later event of the
// lane samples the mark), with and without an events output, for split and
// clone dispatch.
func TestMergePeakQueuedPinned(t *testing.T) {
	for _, c := range []struct {
		name   string
		scheme core.Scheme
		events bool
		want   int
	}{
		{"paldia", core.NewPaldia(), false, 184},
		{"paldia-events", core.NewPaldia(), true, 942},
		{"clone-2", core.NewPaldiaCloneK(2, false), false, 184},
		{"clone-2-events", core.NewPaldiaCloneK(2, false), true, 1338},
	} {
		t.Run(c.name, func(t *testing.T) {
			var events bytes.Buffer
			mw := telemetry.NewMergeWriter(&bytes.Buffer{}, nil, testTenants)
			if c.events {
				mw = telemetry.NewMergeWriter(&bytes.Buffer{}, &events, testTenants)
			}
			curve := trace.AzureCurve(sim.NewRNG(testSeed), testRPS, testDur)
			var cfgs []core.Config
			for i, lane := range curve.Partition(testTenants) {
				cfgs = append(cfgs, core.Config{
					Model:       model.MustByName("ResNet 50"),
					Stream:      lane.Stream(sim.NewRNG(testSeed)),
					Scheme:      c.scheme,
					Metrics:     core.MetricsOnline,
					Telemetry:   mw.Lane(i),
					SampleEvery: 500 * time.Millisecond,
				})
			}
			Run(cfgs, Options{Shards: 2, Merge: mw})
			if err := mw.Close(); err != nil {
				t.Fatal(err)
			}
			if got := mw.PeakQueued(); got != c.want {
				t.Errorf("PeakQueued = %d, want %d", got, c.want)
			}
		})
	}
}
