package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Merging shard aggregators must answer exactly what one aggregator fed the
// union stream would, for everything the sharded Result reports: counts,
// compliance, mean, max, breakdown and goodput windows are exact; percentiles
// agree within the sketch's structural α bound. The "disjoint" input gives
// the four lanes latency ranges that do not overlap — seconds, then
// microseconds, then tens of seconds, then single microseconds — so each
// merge widens the dense bucket range down or up.
func TestMergeOnlineMatchesUnionStream(t *testing.T) {
	lanes := []time.Duration{time.Second, 10 * time.Microsecond, 30 * time.Second, time.Microsecond}
	for name, latency := range map[string]func(rng *rand.Rand, i int) time.Duration{
		"exponential": func(rng *rand.Rand, _ int) time.Duration {
			return time.Duration(rng.ExpFloat64() * float64(150*time.Millisecond))
		},
		"disjoint": func(rng *rand.Rand, i int) time.Duration {
			return time.Duration((1 + rng.Float64()) * float64(lanes[i%len(lanes)]))
		},
	} {
		t.Run(name, func(t *testing.T) { checkMergeMatchesUnion(t, latency) })
	}
}

func checkMergeMatchesUnion(t *testing.T, latency func(rng *rand.Rand, i int) time.Duration) {
	const slo = 200 * time.Millisecond
	rng := rand.New(rand.NewSource(7))
	mkRecord := func(i int) Record {
		lat := latency(rng, i)
		return Record{
			Arrival:      time.Duration(i) * 37 * time.Millisecond,
			Latency:      lat,
			BatchWait:    lat / 5,
			QueueDelay:   lat / 7,
			Interference: lat / 11,
			ColdStart:    lat / 13,
			MinExec:      lat / 3,
			Failed:       i%97 == 0,
		}
	}

	const n = 5000
	dur := time.Duration(n) * 37 * time.Millisecond
	union := NewOnline(slo, dur, DefaultGoodputWindow)
	parts := make([]*Online, 4)
	for i := range parts {
		parts[i] = NewOnline(slo, dur, DefaultGoodputWindow)
	}
	for i := 0; i < n; i++ {
		r := mkRecord(i)
		union.Add(r)
		parts[i%len(parts)].Add(r)
	}

	merged := MergeOnline(parts)
	if merged.Count() != union.Count() {
		t.Fatalf("count: merged %d, union %d", merged.Count(), union.Count())
	}
	if merged.Failed() != union.Failed() {
		t.Errorf("failed: merged %d, union %d", merged.Failed(), union.Failed())
	}
	if merged.SLOCompliance() != union.SLOCompliance() {
		t.Errorf("compliance: merged %v, union %v", merged.SLOCompliance(), union.SLOCompliance())
	}
	if merged.Mean() != union.Mean() {
		t.Errorf("mean: merged %v, union %v", merged.Mean(), union.Mean())
	}
	if merged.Max() != union.Max() {
		t.Errorf("max: merged %v, union %v", merged.Max(), union.Max())
	}
	if got, want := merged.MeanBreakdown(), union.MeanBreakdown(); got != want {
		t.Errorf("breakdown: merged %+v, union %+v", got, want)
	}
	for _, p := range []float64{50, 95, 99} {
		got, want := merged.Percentile(p), union.Percentile(p)
		if relErr(got, want) > 2*SketchAlpha {
			t.Errorf("P%.0f: merged %v vs union %v beyond sketch bound", p, got, want)
		}
	}
	for from := time.Duration(0); from < dur; from += 13 * time.Second {
		to := from + 5*time.Second
		if g, u := merged.GoodputRPS(from, to), union.GoodputRPS(from, to); g != u {
			t.Errorf("goodput[%v,%v): merged %v, union %v", from, to, g, u)
		}
		if g, u := merged.ArrivalRPS(from, to), union.ArrivalRPS(from, to); g != u {
			t.Errorf("arrivals[%v,%v): merged %v, union %v", from, to, g, u)
		}
	}
}

// Determinism is the property the sharded path leans on: merging the same
// sources in the same order yields identical snapshots every time, and
// worker-count never enters the computation.
func TestMergeOnlineDeterministic(t *testing.T) {
	parts := make([]*Online, 3)
	for i := range parts {
		parts[i] = NewOnline(100*time.Millisecond, time.Minute, DefaultGoodputWindow)
		for j := 0; j < 200*(i+1); j++ {
			parts[i].Add(Record{
				Arrival: time.Duration(j) * 100 * time.Millisecond,
				Latency: time.Duration((i+1)*(j%50)) * time.Millisecond,
			})
		}
	}
	a, b := MergeOnline(parts), MergeOnline(parts)
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Errorf("repeat merges differ:\n%+v\nvs\n%+v", a.Snapshot(), b.Snapshot())
	}
}

// An empty merge must not panic and must report like an empty aggregator.
func TestMergeOnlineEmpty(t *testing.T) {
	m := MergeOnline(nil)
	if m.Count() != 0 || m.SLOCompliance() != 1 {
		t.Errorf("empty merge: count=%d compliance=%v", m.Count(), m.SLOCompliance())
	}
	m = MergeOnline([]*Online{nil, NewOnline(time.Second, 0, 0), nil})
	if m.Count() != 0 {
		t.Errorf("nil-source merge: count=%d", m.Count())
	}
}

// Tee duplicates writes and reads from the primary only.
func TestTeeFeedsBothReadsPrimary(t *testing.T) {
	prim := NewOnline(200*time.Millisecond, 0, 0)
	mirror := NewOnline(200*time.Millisecond, 0, 0)
	tee := NewTee(prim, mirror)
	var agg Aggregator = tee
	for i := 0; i < 10; i++ {
		agg.Add(Record{Latency: time.Duration(i) * 30 * time.Millisecond})
	}
	if prim.Count() != 10 || mirror.Count() != 10 {
		t.Fatalf("tee counts: primary %d mirror %d", prim.Count(), mirror.Count())
	}
	mirror.Add(Record{Latency: time.Hour}) // mirror-only noise
	if agg.Count() != 10 {
		t.Errorf("tee reads from mirror, not primary: count=%d", agg.Count())
	}
	if agg.Percentile(99) != prim.Percentile(99) {
		t.Errorf("tee percentile %v != primary %v", agg.Percentile(99), prim.Percentile(99))
	}
}

func relErr(got, want time.Duration) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(float64(got-want)) / float64(want)
}
