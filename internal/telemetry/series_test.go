package telemetry

import (
	"bytes"
	"testing"
	"time"
)

// A SeriesSet is a sink of Sample events only: every other kind, lifecycle
// or not, leaves it untouched.
func TestSeriesSetSinkObservesOnlySamples(t *testing.T) {
	ss := NewSeriesSet()
	for i := 0; i < 3; i++ {
		e := Ev(ms(i), Sample)
		e.Detail, e.Value = "x", float64(i)
		ss.Event(e)
		for _, k := range []Kind{Arrived, Completed, ContainerBoot, HWSwitch} {
			e.Kind = k
			ss.Event(e)
		}
	}
	if ss.Len() != 1 {
		t.Fatalf("got series %v, want only x", ss.Names())
	}
	for i, p := range ss.Get("x").Points {
		if p.At != ms(i) || p.Value != float64(i) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
	if n := len(ss.Get("x").Points); n != 3 {
		t.Fatalf("got %d points, want 3 (one per Sample event)", n)
	}
}

// Attaching a series set never makes the runtime build lifecycle events: it
// declines them alone and beside a lane sink without an events output. A
// lane sink that writes the event feed still asks for them.
func TestSeriesSetDeclinesLifecycle(t *testing.T) {
	ss := NewSeriesSet()
	if WantsLifecycle(ss) {
		t.Error("a series set alone wants lifecycle events")
	}
	spansOnly := NewMergeWriter(&bytes.Buffer{}, nil, 2)
	if WantsLifecycle(Combine(ss, spansOnly.Lane(0))) {
		t.Error("a series set beside a spans-only lane sink wants lifecycle events")
	}
	withEvents := NewMergeWriter(&bytes.Buffer{}, &bytes.Buffer{}, 2)
	if !WantsLifecycle(Combine(ss, withEvents.Lane(0))) {
		t.Error("a lane sink with an events output lost its lifecycle events")
	}
}

// feedLaneSamples feeds lane's sink four ticks of a sampler at a 250 ms
// cadence, offset by 10 ms per lane, with lane-specific values; lane 2
// samples one gauge fewer.
func feedLaneSamples(sink Sink, lane, tick int) {
	at := time.Duration(tick*250+lane*10) * time.Millisecond
	for g, name := range []string{"pending_requests", "active_jobs", "cost_usd"}[:3-lane/2] {
		e := Ev(at, Sample)
		e.Detail, e.Value = name, float64(lane*100+tick*10+g)+0.5
		sink.Event(e)
	}
}

// Three lanes' series sets merge into the CSV a three-lane MergeWriter
// wrote from the same feeds when it kept the series itself, flushed at every
// other tick: lane-prefixed names in lane order, one row per instant of any
// lane.
func TestMergeLanesMatchesMergedWriterSeries(t *testing.T) {
	const want = "t_s,t0/pending_requests,t0/active_jobs,t0/cost_usd,t1/pending_requests,t1/active_jobs,t1/cost_usd,t2/pending_requests,t2/active_jobs\n" +
		"0.000000,0.5,1.5,2.5,,,,,\n" +
		"0.010000,,,,100.5,101.5,102.5,,\n" +
		"0.020000,,,,,,,200.5,201.5\n" +
		"0.250000,10.5,11.5,12.5,,,,,\n" +
		"0.260000,,,,110.5,111.5,112.5,,\n" +
		"0.270000,,,,,,,210.5,211.5\n" +
		"0.500000,20.5,21.5,22.5,,,,,\n" +
		"0.510000,,,,120.5,121.5,122.5,,\n" +
		"0.520000,,,,,,,220.5,221.5\n" +
		"0.750000,30.5,31.5,32.5,,,,,\n" +
		"0.760000,,,,130.5,131.5,132.5,,\n" +
		"0.770000,,,,,,,230.5,231.5\n"
	lanes := []*SeriesSet{NewSeriesSet(), NewSeriesSet(), NewSeriesSet()}
	for tick := 0; tick < 4; tick++ {
		for lane, ss := range lanes {
			feedLaneSamples(ss, lane, tick)
		}
	}
	var b bytes.Buffer
	if err := MergeLanes(lanes).WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("merged series CSV:\n%s\nwant\n%s", b.String(), want)
	}
	if MergeLanes(lanes[:1]) != lanes[0] {
		t.Error("a single lane's series were copied or renamed")
	}
}
