package core

import (
	"time"

	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Multi-tenant serving: several workloads co-served on one shared node at a
// time, the deployment reality behind the paper's motivation experiment and
// mixed-workload study. RunMulti runs the same runtime as Run with one tenant
// per workload: each keeps its own batcher, predictor, split decision,
// container pool and autoscaler, and the Hardware Selection module picks a
// node capable of the *aggregate* (see runner.desiredHardware).

// Workload pairs a model with its arrival trace. Stream, when set, supplies
// arrivals lazily instead of Trace (as Config.Stream does for single-tenant
// runs); when both are set, Stream wins.
type Workload struct {
	Model  model.Spec
	Trace  *trace.Trace
	Stream trace.Stream
}

// MultiConfig describes a multi-tenant serving simulation.
type MultiConfig struct {
	Workloads []Workload
	Scheme    Scheme

	// Forecaster selects the per-tenant rate-forecasting model by name, as
	// Config.Forecaster does (empty means "ewma"); ignored for clairvoyant
	// schemes.
	Forecaster string

	// Telemetry, when set, receives every typed runtime event; request,
	// container-pool and autoscaler events carry the workload index in
	// Event.Tenant. Nil disables the layer (one branch per emission site).
	Telemetry telemetry.Sink

	// Invariants, when set, audits the run as Config.Invariants does, on
	// every tenant's spans and jobs. A checker is single-run: pass a fresh
	// one per RunMulti.
	Invariants *invariant.Checker
}

// MultiResult aggregates a multi-tenant run.
type MultiResult struct {
	Scheme string
	// PerWorkload carries one collector per workload, in input order.
	PerWorkload []*metrics.Collector
	// SLOCompliance is request-weighted across workloads.
	SLOCompliance float64
	Cost          float64
	Switches      int
	HeldBySpec    map[string]time.Duration
}

// RunMulti executes a multi-tenant simulation. It serves the scheme's base
// policy only: redundancy and scale-out stay single-tenant (Run).
func RunMulti(cfg MultiConfig) MultiResult {
	base := cfg.config()
	base.Scheme.Redundancy = Redundancy{}
	ru := start(base, cfg.Workloads)
	ru.settle()
	r := ru.r
	res := MultiResult{
		Scheme:     r.cfg.Scheme.Name(),
		Cost:       r.clu.TotalCost(),
		Switches:   r.switches,
		HeldBySpec: r.clu.HeldBySpec(),
	}
	total, ok := 0, 0.0
	for _, t := range r.tenants {
		col := t.col.(*metrics.Collector)
		res.PerWorkload = append(res.PerWorkload, col)
		total += col.Count()
		ok += col.SLOCompliance() * float64(col.Count())
	}
	if total > 0 {
		res.SLOCompliance = ok / float64(total)
	} else {
		res.SLOCompliance = 1
	}
	return res
}

// config is the Config of cfg's shared fields, without a workload.
func (cfg MultiConfig) config() Config {
	return Config{
		Scheme:     cfg.Scheme,
		Forecaster: cfg.Forecaster,
		Telemetry:  cfg.Telemetry,
		Invariants: cfg.Invariants,
	}
}
