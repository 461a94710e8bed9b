package core

import (
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// servedNode lands a freshly acquired V100 serving tenants of ResNet 50
// through serve, outside any run: no arrivals, dispatch or monitor ticks, so
// the lanes' predictive tickers are the only periodic work. Every tenant's
// forecast reads *rate.
func servedNode(tenants int, rate *float64) (*runner, *servingNode) {
	cfg := Config{Model: model.MustByName("ResNet 50")}
	cfg.applyDefaults()
	r := &runner{cfg: cfg, eng: sim.NewEngine()}
	r.clu = cluster.New(r.eng)
	for i := range tenants {
		r.tenants = append(r.tenants, &tenant{idx: i, rows: profile.RowsFor(cfg.Model),
			predictAt: func(now, horizon time.Duration) float64 { return *rate }})
	}
	spec := hardware.MostPerformant(hardware.GPU)
	s := &slot{spec: spec}
	r.slots = []*slot{s}
	sn := r.wireNode(r.clu.Acquire(spec, r.maxResident(spec)))
	r.serve(s, sn, nil)
	return r, sn
}

// A predicted surge pre-warms the pool on the next predictive tick, ahead
// of any load, without a single synchronous cold start.
func TestPrewarmAheadOfLoad(t *testing.T) {
	rate := 0.0
	r, sn := servedNode(1, &rate)
	pool, e := sn.lanes[0].pool, sn.lanes[0].entry
	r.eng.Run(25 * time.Second)
	if pool.Total() != 1 {
		t.Fatalf("baseline pool = %d, want 1", pool.Total())
	}
	// 4.5 batches per residence: five containers.
	rate = 4.5 * float64(e.PreferredBatch) / residenceOf(e).Seconds()
	if want := autoscale.PredictiveContainers(rate, residenceOf(e), e.PreferredBatch); want != 5 {
		t.Fatalf("surge needs %d containers, want 5", want)
	}
	r.eng.Run(40 * time.Second)
	if pool.Total() != 5 || pool.Idle() != 5 {
		t.Fatalf("pool after predicted surge: %d total, %d idle, want 5 warm", pool.Total(), pool.Idle())
	}
	if pool.SyncColdStarts() != 0 {
		t.Fatal("predictive scale-up charged synchronous cold starts")
	}
}

// After retire, each lane's ticker fires at most once more, without
// pre-warming, and then leaves the engine.
func TestPrewarmStopsAtRetire(t *testing.T) {
	rate := 0.0
	r, sn := servedNode(2, &rate)
	r.eng.Run(25 * time.Second)
	r.retire(sn) // idle device: released at once, no drain poll
	rate = 1e6
	fired, pending := r.eng.Fired(), r.eng.Pending()
	r.eng.Run(r.eng.Now() + 3*autoscale.DefaultPredictInterval)
	if got := r.eng.Fired() - fired; got != uint64(len(sn.lanes)) {
		t.Errorf("%d events fired after retire, want one last tick per lane (%d)", got, len(sn.lanes))
	}
	if got := pending - r.eng.Pending(); got != len(sn.lanes) {
		t.Fatalf("pending events fell by %d after retire, want %d", got, len(sn.lanes))
	}
	for i := range sn.lanes {
		if n := sn.lanes[i].pool.Total(); n != 1 {
			t.Errorf("lane %d pool = %d after retire, want 1 (no pre-warm)", i, n)
		}
	}
	r.eng.RunAll() // terminates: no ticker is left to re-arm
}

// Gauges are sampled at t=0 and then once per cadence; with no cadence or
// no sink, no sampling ticker is registered at all.
func TestGaugeSampleCadence(t *testing.T) {
	cfg := func(sink telemetry.Sink, every time.Duration) Config {
		return Config{
			Model:       model.MustByName("ResNet 50"),
			Trace:       shortAzure(5, 50, 30*time.Second),
			Scheme:      NewPaldia(),
			Telemetry:   sink,
			SampleEvery: every,
		}
	}
	ss := telemetry.NewSeriesSet()
	ru := Start(cfg(ss, time.Second))
	ru.StepTo(3500 * time.Millisecond)
	nodes := ss.Get("nodes")
	if nodes == nil || len(nodes.Points) != 4 {
		t.Fatalf("nodes series = %+v, want samples at 0s, 1s, 2s and 3s", nodes)
	}
	for i, p := range nodes.Points {
		if p.At != time.Duration(i)*time.Second {
			t.Fatalf("sample %d at %v, want %v", i, p.At, time.Duration(i)*time.Second)
		}
	}

	base := Start(cfg(nil, 0)).r.eng.Pending()
	for _, c := range []struct {
		name  string
		sink  telemetry.Sink
		every time.Duration
		extra int
	}{
		{"no sink", nil, time.Second, 0},
		{"no cadence", telemetry.NewSeriesSet(), 0, 0},
		{"sampled", telemetry.NewSeriesSet(), time.Second, 1},
	} {
		if got := Start(cfg(c.sink, c.every)).r.eng.Pending() - base; got != c.extra {
			t.Errorf("%s: %d more events pending than an unsampled run, want %d", c.name, got, c.extra)
		}
	}
}
