package obs

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Options configures a Plane.
type Options struct {
	// SLO is the per-request latency objective spans are judged against.
	// Zero defaults to core.DefaultSLO.
	SLO time.Duration

	// Objective is the target SLO-compliance fraction whose complement is
	// the error budget (0.99 => 1% budget). Zero defaults to 0.99.
	Objective float64

	// Windows are the burn-rate look-back windows; empty uses
	// DefaultBurnWindows (5m/1h virtual, threshold 14.4 each).
	Windows []BurnWindow

	// Online, when set, is the run's constant-memory aggregator; /metrics
	// serves latency quantiles and goodput from its snapshots. Pass the
	// same value through core.Config.Aggregator.
	Online *metrics.Online

	// Clock paces the replay; nil uses the real clock.
	Clock Clock

	// Speedup is virtual seconds per wall second; <= 0 leaves the replay
	// unpaced (as fast as the hardware allows).
	Speedup float64
}

// Plane bundles the live observability plane: the hub (telemetry sink +
// state + SSE feed), the burn-rate tracker, the wall-clock replay driver
// and the HTTP server glue. Attach it to a run with:
//
//	cfg.Telemetry = telemetry.Combine(otherSinks, plane.Sink())
//	cfg.Pacer = plane.Pacer()
//	cfg.Aggregator = plane.Online()   // optional, for /metrics quantiles
//
// and serve it with NewServer(plane).
type Plane struct {
	hub    *Hub
	burn   *BurnTracker
	driver *Driver
	online *metrics.Online
}

// NewPlane assembles a plane from options.
func NewPlane(o Options) *Plane {
	if o.SLO == 0 {
		o.SLO = core.DefaultSLO
	}
	if o.Objective == 0 {
		o.Objective = 0.99
	}
	burn := NewBurnTracker(o.Objective, o.Windows, nil)
	hub := NewHub(o.SLO, burn)
	burn.onAlert = hub.alert
	return &Plane{
		hub:    hub,
		burn:   burn,
		driver: NewDriver(o.Clock, o.Speedup),
		online: o.Online,
	}
}

// Hub returns the plane's state store and SSE feed.
func (p *Plane) Hub() *Hub { return p.hub }

// Sink returns the telemetry sink — events and spans — to combine into
// Config.Telemetry.
func (p *Plane) Sink() telemetry.SpanSink { return p.hub }

// Pacer returns the clock-advance hook for core.Config.Pacer.
func (p *Plane) Pacer() func(time.Duration) { return p.driver.Pace }

// Driver returns the wall-clock replay driver.
func (p *Plane) Driver() *Driver { return p.driver }

// Online returns the aggregator /metrics snapshots, if any.
func (p *Plane) Online() *metrics.Online { return p.online }

// MarkDone flags the replay finished (see Hub.MarkDone).
func (p *Plane) MarkDone() { p.hub.MarkDone() }
