package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// traceSnapshot is a deep copy of what a run may read from its Trace.
type traceSnapshot struct {
	name     string
	arrivals []time.Duration
	duration time.Duration
}

func snapshot(tr *trace.Trace) traceSnapshot {
	return traceSnapshot{tr.Name, slices.Clone(tr.Arrivals), tr.Duration}
}

func (s traceSnapshot) check(t *testing.T, what string, tr *trace.Trace) {
	t.Helper()
	if tr.Name != s.name || tr.Duration != s.duration || !slices.Equal(tr.Arrivals, s.arrivals) {
		t.Errorf("%s modified its trace %q (%d arrivals, %v)", what, s.name, len(s.arrivals), s.duration)
	}
}

// TestRunLeavesTraceUntouched pins the premise behind experiment grids
// sharing one realized trace between sibling runs: Run and RunMulti only
// read their traces — the learned schemes, the clairvoyant Oracle (which
// reads ahead through trace.Materialized) and a run under spot revocation —
// and a second run on the same trace returns the first run's Result.
func TestRunLeavesTraceUntouched(t *testing.T) {
	resnet := model.MustByName("ResNet 50")
	cases := []struct {
		name string
		cfg  Config
	}{
		{"paldia", Config{Scheme: NewPaldia()}},
		{"oracle", Config{Scheme: NewOracle()}},
		{"spot-revocation", spotCfg(Config{Scheme: NewPaldiaCloneK(2, false)})},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := shortAzure(uint64(10+i), 200, 2*time.Minute)
			before := snapshot(tr)
			cfg := tc.cfg
			cfg.Model, cfg.Trace = resnet, tr
			first := Run(cfg)
			before.check(t, "Run", tr)
			second := Run(cfg)
			first.Collector, second.Collector = nil, nil
			if !reflect.DeepEqual(first, second) {
				t.Errorf("a second run on the same trace differs:\n%+v\n%+v", first, second)
			}

			rng := sim.NewRNG(uint64(20 + i))
			ws := []Workload{
				{Model: resnet, Trace: tr},
				{Model: model.MustByName("SENet 18"), Trace: trace.Stable(rng, 150, time.Minute)},
			}
			others := snapshot(ws[1].Trace)
			RunMulti(MultiConfig{Workloads: ws, Scheme: tc.cfg.Scheme})
			before.check(t, "RunMulti", tr)
			others.check(t, "RunMulti", ws[1].Trace)
		})
	}
}
