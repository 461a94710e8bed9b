package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FuzzConfigValidate throws arbitrary knob values at the Config validator:
// it must never panic, must accept every zero-heavy "defaults please"
// config, and everything it accepts must survive applyDefaults with every
// time constant positive and every factor finite — i.e. Validate is a true
// gate for the defaulting layer.
func FuzzConfigValidate(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), int64(0), 0.0, 0.0, 0, true)
	f.Add(int64(200e6), int64(25e6), int64(60e9), int64(30e9), 1.5, 1.1, 3, true)
	f.Add(int64(-1), int64(0), int64(5e9), int64(0), math.Inf(1), -2.0, -4, false)
	f.Fuzz(func(t *testing.T, sloNs, windowNs, failEveryNs, failDurNs int64,
		hfCPU, hfGPU float64, maxNodes int, wired bool) {
		cfg := Config{
			SLO:             time.Duration(sloNs),
			DispatchWindow:  time.Duration(windowNs),
			FailureEvery:    time.Duration(failEveryNs),
			FailureDuration: time.Duration(failDurNs),
			HostFactorCPU:   hfCPU,
			HostFactorGPU:   hfGPU,
			MaxNodes:        maxNodes,
		}
		if wired {
			cfg.Model = model.MustByName("ResNet 50")
			cfg.Trace = trace.FromArrivals("fuzz", nil, time.Second)
			cfg.Scheme = NewPaldia()
		}
		err := cfg.Validate()
		if !wired {
			if err == nil {
				t.Fatal("config with no model/trace/scheme validated")
			}
			return
		}
		if err != nil {
			return
		}
		cfg.applyDefaults()
		for _, d := range []time.Duration{cfg.SLO, cfg.DispatchWindow, cfg.KeepAlive} {
			if d <= 0 {
				t.Fatalf("validated config defaulted to a non-positive constant: %+v", cfg)
			}
		}
		if math.IsNaN(cfg.HostFactorCPU) || math.IsInf(cfg.HostFactorCPU, 0) ||
			math.IsNaN(cfg.HostFactorGPU) || math.IsInf(cfg.HostFactorGPU, 0) {
			t.Fatal("validated config kept a non-finite host factor")
		}
		if cfg.FailureEvery > 0 && cfg.FailureDuration <= 0 {
			t.Fatal("validated config injects failures with no outage duration")
		}
	})
}

// fuzzSchemes are the scheme families FuzzRun draws from: the paper's
// scheme, a cost and a performance baseline, and the three redundant-dispatch
// variants.
var fuzzSchemes = []func() Scheme{
	NewPaldia,
	NewINFlessLlamaCost,
	NewMoleculePerf,
	func() Scheme { return NewPaldiaCloneK(2, false) },
	func() Scheme { return NewPaldiaCloneK(3, true) },
	func() Scheme { return NewPaldiaHedged(95) },
}

// FuzzRun drives whole simulations with the invariant checker attached:
// every config Validate accepts — any scheme family, failure and revocation
// schedule, spot mix, MaxNodes and forecaster — must run without a panic and
// without a single law violation. The harness keeps runs short: traces last
// at most 20 s at a bounded peak, and cadences move in 100 ms steps (a
// nanosecond cadence is valid but would run forever).
func FuzzRun(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(200), uint8(10), int16(0), int16(0), int16(0), int16(0), 0.0, 0.0, int8(0), uint8(0))
	f.Add(uint8(0), uint64(2), uint16(300), uint8(15), int16(40), int16(20), int16(30), int16(10), 0.6, 1.0, int8(3), uint8(1))
	f.Add(uint8(1), uint64(3), uint16(150), uint8(10), int16(25), int16(50), int16(0), int16(0), 0.0, 0.0, int8(0), uint8(2))
	f.Add(uint8(2), uint64(4), uint16(250), uint8(10), int16(0), int16(0), int16(20), int16(5), 0.5, 0.5, int8(2), uint8(3))
	f.Add(uint8(3), uint64(5), uint16(200), uint8(15), int16(30), int16(10), int16(25), int16(20), 0.65, 1.0, int8(0), uint8(4))
	f.Add(uint8(4), uint64(6), uint16(120), uint8(10), int16(20), int16(10), int16(15), int16(5), 0.65, 0.5, int8(1), uint8(0))
	f.Add(uint8(5), uint64(7), uint16(200), uint8(15), int16(35), int16(15), int16(20), int16(10), 0.65, 1.0, int8(0), uint8(5))
	f.Fuzz(func(t *testing.T, scheme uint8, seed uint64, peak uint16, durSec uint8,
		failEvery, failFor, revokeEvery, revokeNotice int16,
		spotDiscount, spotFraction float64, maxNodes int8, forecaster uint8) {
		forecasters := append([]string{""}, predict.Names()...)
		forecasters = append(forecasters, "crystal-ball")
		const step = 100 * time.Millisecond
		chk := invariant.New()
		cfg := Config{
			Model:           model.MustByName("ResNet 50"),
			Trace:           trace.Azure(sim.NewRNG(seed), float64(peak%400+1), time.Duration(durSec%20+1)*time.Second),
			Scheme:          fuzzSchemes[int(scheme)%len(fuzzSchemes)](),
			FailureEvery:    time.Duration(failEvery) * step,
			FailureDuration: time.Duration(failFor) * step,
			RevokeEvery:     time.Duration(revokeEvery) * step,
			RevokeNotice:    time.Duration(revokeNotice) * step,
			SpotDiscount:    spotDiscount,
			SpotFraction:    spotFraction,
			MaxNodes:        int(maxNodes),
			Forecaster:      forecasters[int(forecaster)%len(forecasters)],
			Invariants:      chk,
		}
		if cfg.Validate() != nil {
			return
		}
		res := Run(cfg)
		if err := chk.Err(); err != nil {
			t.Fatalf("%s: invariant violations (%d total):\n%v", res.Scheme, chk.Total(), err)
		}
		if res.Requests != cfg.Trace.Count() {
			t.Fatalf("%s: %d outcomes for %d requests", res.Scheme, res.Requests, cfg.Trace.Count())
		}
	})
}
