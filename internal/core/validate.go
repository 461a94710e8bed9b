package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/predict"
	"repro/internal/trace"
)

// Validate reports whether the config describes a runnable simulation.
// Zero-valued knobs are legal (applyDefaults fills them); what Validate
// rejects is the nonsense a default cannot repair: missing workload, trace
// or scheme, negative time constants, non-finite host factors, and failure
// injection with no outage duration. Run does not call Validate — a
// malformed config panics as it always has — but config-constructing code
// (and the fuzzer) can reject bad inputs up front with a named reason.
func (c Config) Validate() error {
	errs := validateWorkload("core: ", Workload{Model: c.Model, Trace: c.Trace, Stream: c.Stream},
		c.Scheme.Clairvoyant)
	return errors.Join(append(errs, c.validateShared()...)...)
}

// Validate reports whether the config describes a runnable multi-tenant
// simulation: each workload passes the checks Config.Validate makes of its
// model and trace, the shared fields pass Config.Validate's checks, and the
// config stays within what RunMulti serves — at least one workload, and no
// redundancy scheme (RunMulti would serve only its base policy). Like Run,
// RunMulti does not call Validate.
func (c MultiConfig) Validate() error {
	var errs []error
	if len(c.Workloads) == 0 {
		errs = append(errs, errors.New("core: Workloads is empty"))
	}
	for i, w := range c.Workloads {
		errs = append(errs, validateWorkload(fmt.Sprintf("core: workload %d: ", i), w,
			c.Scheme.Clairvoyant)...)
	}
	errs = append(errs, c.config().validateShared()...)
	if c.Scheme.Redundancy.Active() {
		errs = append(errs, errors.New(
			"core: RunMulti does not serve redundancy schemes (it would run only the base policy)"))
	}
	return errors.Join(errs...)
}

// validateWorkload checks one workload's model and arrival source; prefix
// opens every message.
func validateWorkload(prefix string, w Workload, clairvoyant bool) []error {
	var errs []error
	if w.Model.Name == "" {
		errs = append(errs, errors.New(prefix+"Model is unset"))
	}
	if w.Trace == nil && w.Stream == nil {
		errs = append(errs, errors.New(prefix+"Trace and Stream are both nil"))
	}
	if clairvoyant && w.Trace == nil && w.Stream != nil {
		if _, ok := trace.Materialized(w.Stream); !ok {
			errs = append(errs, errors.New(prefix+
				"clairvoyant scheme needs a materialized trace (set Trace, or a Stream implementing trace.Materializer)"))
		}
	}
	return errs
}

// validateShared checks everything but the workload: scheme, time
// constants, factors, failure and spot injection, redundancy.
func (c Config) validateShared() []error {
	var errs []error
	if c.Scheme.Policy == nil {
		errs = append(errs, errors.New("core: Scheme has no policy (use a New* constructor)"))
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"SLO", c.SLO},
		{"DispatchWindow", c.DispatchWindow},
		{"KeepAlive", c.KeepAlive},
		{"FailureEvery", c.FailureEvery},
		{"FailureDuration", c.FailureDuration},
		{"SampleEvery", c.SampleEvery},
		{"RevokeEvery", c.RevokeEvery},
		{"RevokeNotice", c.RevokeNotice},
	} {
		if d.v < 0 {
			errs = append(errs, fmt.Errorf("core: %s is negative (%v)", d.name, d.v))
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"HostFactorCPU", c.HostFactorCPU},
		{"HostFactorGPU", c.HostFactorGPU},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			errs = append(errs, fmt.Errorf("core: %s is not a usable factor (%v)", f.name, f.v))
		}
	}
	if c.MaxNodes < 0 {
		errs = append(errs, fmt.Errorf("core: MaxNodes is negative (%d)", c.MaxNodes))
	}
	if c.Forecaster != "" {
		if _, err := predict.NewByName(c.Forecaster, time.Second); err != nil {
			errs = append(errs, err)
		}
	}
	if c.FailureEvery > 0 && c.FailureDuration <= 0 {
		errs = append(errs, errors.New("core: FailureEvery without a positive FailureDuration"))
	}
	if math.IsNaN(c.SpotDiscount) || c.SpotDiscount < 0 || c.SpotDiscount >= 1 {
		errs = append(errs, fmt.Errorf("core: SpotDiscount must be in [0,1) (%v)", c.SpotDiscount))
	}
	if math.IsNaN(c.SpotFraction) || c.SpotFraction < 0 || c.SpotFraction > 1 {
		errs = append(errs, fmt.Errorf("core: SpotFraction must be in [0,1] (%v)", c.SpotFraction))
	}
	if c.RevokeEvery > 0 {
		if c.RevokeNotice <= 0 {
			errs = append(errs, errors.New("core: RevokeEvery without a positive RevokeNotice"))
		}
		if c.SpotDiscount <= 0 || c.SpotFraction <= 0 {
			errs = append(errs, errors.New("core: RevokeEvery without spot nodes (set SpotDiscount and SpotFraction)"))
		}
	}
	rd := c.Scheme.Redundancy
	if rd.CloneK != 0 && (rd.CloneK < 2 || rd.CloneK > 3) {
		errs = append(errs, fmt.Errorf("core: Redundancy.CloneK must be 0 or in [2,3] (%d)", rd.CloneK))
	}
	if rd.HedgePct != 0 && !(rd.HedgePct > 0 && rd.HedgePct <= 100) {
		errs = append(errs, fmt.Errorf("core: Redundancy.HedgePct must be in (0,100] (%v)", rd.HedgePct))
	}
	if rd.CloneK >= 2 && rd.HedgePct > 0 {
		errs = append(errs, errors.New("core: Redundancy.CloneK and HedgePct are mutually exclusive"))
	}
	if rd.Active() && c.MaxNodes > 1 {
		errs = append(errs, errors.New("core: redundancy schemes do not compose with MaxNodes scale-out"))
	}
	return errs
}
