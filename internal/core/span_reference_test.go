package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file keeps the event-to-span assembler that built every span before
// the runtime did — an open map keyed by (tenant, req), a job map stamping
// Queued/ExecStart/ExecEnd onto member spans, and a waiting map holding
// terminal spans until their job's ExecEnd — as a reference implementation,
// and asserts that the spans the runtime builds are byte-identical to the
// ones it assembles from the same run's lifecycle events, in the same order.
// This is the executable form of the runtime's span contract, in the spirit
// of container's reap_reference_test.go.

type refSpanKey struct {
	tenant int
	req    int64
}

// spanReference is the historical assembler. done receives each span the
// moment it can no longer change (terminal and job-stamped).
type spanReference struct {
	open    map[refSpanKey]*telemetry.Span
	jobs    map[int64][]*telemetry.Span
	waiting map[int64][]*telemetry.Span
	done    func(*telemetry.Span)
	seen    map[telemetry.Kind]bool
}

func newSpanReference(done func(*telemetry.Span)) *spanReference {
	return &spanReference{
		open:    make(map[refSpanKey]*telemetry.Span),
		jobs:    make(map[int64][]*telemetry.Span),
		waiting: make(map[int64][]*telemetry.Span),
		done:    done,
		seen:    make(map[telemetry.Kind]bool),
	}
}

// Event absorbs one event; Sample events carry no span information.
func (a *spanReference) Event(e telemetry.Event) {
	a.seen[e.Kind] = true
	switch e.Kind {
	case telemetry.Arrived:
		a.span(e).Arrived = e.At
	case telemetry.Batched:
		a.span(e).Batched = e.At
	case telemetry.Dispatched:
		s := a.span(e)
		s.Dispatched = e.At
		s.Job = e.Job
		s.Node = e.Node
		s.Spec = e.Spec
		s.BatchSize = e.N
		s.Mode = e.Detail
		if e.Job > 0 {
			a.jobs[e.Job] = append(a.jobs[e.Job], s)
		}
	case telemetry.Queued:
		for _, s := range a.jobs[e.Job] {
			s.Queued = e.At
		}
	case telemetry.ExecStart:
		for _, s := range a.jobs[e.Job] {
			s.ExecStart = e.At
		}
	case telemetry.ExecEnd:
		a.resolveJob(e)
	case telemetry.Cloned:
		s := a.span(e)
		s.Clones++
		if e.Detail == "hedge" {
			s.Hedged = true
		}
	case telemetry.CloneCancelled:
		// Counted on the still-open span, and resolved like an ExecEnd: a
		// primary copy that lost the race ends its execution at the cancel.
		if s, ok := a.open[refSpanKey{e.Tenant, e.Req}]; ok {
			s.Cancelled++
		}
		a.resolveJob(e)
	case telemetry.Completed, telemetry.Failed:
		s := a.span(e)
		s.Completed = e.At
		s.Failed = e.Kind == telemetry.Failed
		delete(a.open, refSpanKey{e.Tenant, e.Req})
		if s.Job > 0 {
			if _, pending := a.jobs[s.Job]; pending {
				a.waiting[s.Job] = append(a.waiting[s.Job], s)
				return
			}
		}
		a.done(s)
	}
}

func (a *spanReference) resolveJob(e telemetry.Event) {
	for _, s := range a.jobs[e.Job] {
		s.ExecEnd = e.At
	}
	delete(a.jobs, e.Job)
	if ws := a.waiting[e.Job]; ws != nil {
		delete(a.waiting, e.Job)
		for _, s := range ws {
			a.done(s)
		}
	}
}

func (a *spanReference) span(e telemetry.Event) *telemetry.Span {
	k := refSpanKey{e.Tenant, e.Req}
	if s, ok := a.open[k]; ok {
		return s
	}
	s := new(telemetry.Span)
	s.Reset(e.Req, e.Tenant)
	a.open[k] = s
	return s
}

// unflushed returns every span still held, in (Arrived, Tenant, Req) order.
func (a *spanReference) unflushed() []*telemetry.Span {
	var out []*telemetry.Span
	for _, s := range a.open {
		out = append(out, s)
	}
	for _, ws := range a.waiting {
		out = append(out, ws...)
	}
	slices.SortFunc(out, telemetry.ArrivalOrder)
	return out
}

// spanDiff attaches both span builders to one run: a StreamWriter taking
// the runtime's spans, and the reference assembling its own from the
// lifecycle events (which it asks for) into a second StreamWriter.
type spanDiff struct {
	got, want       bytes.Buffer
	runtime, refOut *telemetry.StreamWriter
	ref             *spanReference
	ends            endCounter
}

func newSpanDiff() *spanDiff {
	d := &spanDiff{}
	d.runtime = telemetry.NewStreamWriter(&d.got, nil)
	d.refOut = telemetry.NewStreamWriter(&d.want, nil)
	d.ref = newSpanReference(d.refOut.Span)
	return d
}

// sink is the sink to attach to the run.
func (d *spanDiff) sink() telemetry.Sink {
	return telemetry.Combine(d.runtime, d.ref, &d.ends)
}

// check closes both streams and requires them byte-identical.
func (d *spanDiff) check(t *testing.T, name string) {
	t.Helper()
	for _, s := range d.ref.unflushed() {
		d.refOut.Span(s)
	}
	if err := d.runtime.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.refOut.Close(); err != nil {
		t.Fatal(err)
	}
	if d.got.Len() == 0 {
		t.Fatalf("%s: no spans", name)
	}
	if !bytes.Equal(d.got.Bytes(), d.want.Bytes()) {
		g, w := bytes.Split(d.got.Bytes(), []byte("\n")), bytes.Split(d.want.Bytes(), []byte("\n"))
		for i := range min(len(g), len(w)) {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("%s: span line %d differs:\nruntime   %s\nreference %s", name, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s: runtime wrote %d span lines, reference %d", name, len(g), len(w))
	}
}

// endCounter counts the spans of requests the run did not serve: lost with
// their job or clone set, flushed as failed without a dispatch, or still in
// flight when it ended.
type endCounter struct{ lost, flushed, open int }

func (*endCounter) Event(telemetry.Event) {}
func (*endCounter) Lifecycle() bool       { return false }
func (*endCounter) Arrive()               {}
func (c *endCounter) Span(s *telemetry.Span) {
	switch {
	case !s.Done():
		c.open++
	case s.Failed && s.Dispatched < 0:
		c.flushed++
	case s.Failed:
		c.lost++
	}
}

// TestRuntimeSpansMatchReference runs seeded configurations covering every
// span path — plain jobs of Paldia, the Oracle and each baseline family;
// clone-to-k, synchronized clones and hedging with their cancellations; node
// failures, spot revocation with respawn and failover, MaxNodes scale-out; a
// two-tenant RunMulti; and runs ending with unserved and in-flight requests —
// and requires the runtime's span stream to equal the reference's byte for
// byte.
func TestRuntimeSpansMatchReference(t *testing.T) {
	resnet := model.MustByName("ResNet 50")
	bert := model.MustByName("BERT")
	v100 := hardware.MostPerformant(hardware.GPU)
	azure := func(seed uint64, peak float64) *trace.Trace {
		return trace.Azure(sim.NewRNG(seed), peak, time.Minute)
	}
	failures := func(cfg Config) Config {
		cfg.FailureEvery = 7 * time.Second
		cfg.FailureDuration = 10 * time.Second
		return cfg
	}
	vgg := model.MustByName("VGG 19")
	clone := func(s Scheme, seed uint64) Config {
		return Config{Model: resnet, Trace: azure(seed, 200), Scheme: s}
	}
	// Revocations every 5 s with a 1 s notice leave stretches with no pool
	// alive.
	zeroSurvivors := func(cfg Config) Config {
		cfg = spotCfg(cfg)
		cfg.RevokeEvery, cfg.RevokeNotice = 5*time.Second, time.Second
		return cfg
	}
	// A host factor of 1e5 stretches every job past the point where Finish
	// gives up on the backlog: dispatched requests end the run in flight,
	// and — where clone admission holds the rest back — the batcher's are
	// flushed as failed.
	stalled := func(cfg Config) Config {
		cfg.Trace = trace.Azure(sim.NewRNG(17), 50, 10*time.Second)
		cfg.HostFactorCPU, cfg.HostFactorGPU = 1e5, 1e5
		return cfg
	}
	type K = telemetry.Kind
	const (
		failed, revoked = telemetry.NodeFailed, telemetry.NodeRevoked
		cloned, cancel  = telemetry.Cloned, telemetry.CloneCancelled
	)
	cases := []struct {
		name string
		cfg  Config
		need []K // event kinds the run must exercise
		// The run must end with requests in flight, and with requests
		// flushed as failed; lost some to a failure.
		open, flushed, lost bool
	}{
		{"paldia", Config{Model: resnet, Trace: azure(1, 250), Scheme: NewPaldia()}, nil, false, false, false},
		{"oracle", Config{Model: resnet, Trace: azure(2, 250), Scheme: NewOracle()}, nil, false, false, false},
		{"infless", Config{Model: resnet, Trace: azure(3, 250), Scheme: NewINFlessLlamaCost()}, nil, false, false, false},
		{"molecule", Config{Model: bert, Trace: azure(4, 60), Scheme: NewMoleculePerf()}, nil, false, false, false},
		{"mps-only", Config{Model: resnet, Trace: azure(5, 250), Scheme: NewMPSOnly(v100, "mps")}, nil, false, false, false},
		{"time-shared", Config{Model: resnet, Trace: azure(6, 250), Scheme: NewTimeSharedOnly(v100, "ts")}, nil, false, false, false},
		{"paldia-failures", failures(Config{Model: resnet, Trace: azure(7, 250), Scheme: NewPaldia()}),
			[]K{failed, telemetry.Failed}, false, false, true},
		// Failures every 5 s outlasting 30 s leave container claims landing
		// on failed devices: those jobs fail on submission, unqueued.
		{"paldia-failed-submits", Config{Model: resnet, Trace: azure(3, resnet.DefaultPeakRPS()), Scheme: NewPaldia(),
			FailureEvery: 5 * time.Second, FailureDuration: 30 * time.Second}, []K{failed}, false, false, true},
		{"paldia-revoke", spotCfg(Config{Model: resnet, Trace: azure(8, 250), Scheme: NewPaldia()}),
			[]K{revoked, telemetry.HWSwitch}, false, false, false},
		{"maxnodes3", Config{Model: vgg, Trace: azure(9, 3*vgg.DefaultPeakRPS()), Scheme: NewPaldia(), MaxNodes: 3},
			[]K{telemetry.ScaleOut}, false, false, false},
		{"clone-2", clone(NewPaldiaCloneK(2, false), 10), []K{cloned, cancel}, false, false, false},
		{"clone-2-sync", clone(NewPaldiaCloneK(2, true), 11), []K{cloned}, false, false, false},
		{"hedge-p90", clone(NewPaldiaHedged(90), 12), []K{cloned, cancel}, false, false, false},
		{"clone-2-spot-failures", failures(spotCfg(clone(NewPaldiaCloneK(2, false), 13))),
			[]K{failed, revoked, cancel}, false, false, false},
		{"hedge-p90-spot-failures", failures(spotCfg(clone(NewPaldiaHedged(90), 14))),
			[]K{failed, revoked, cloned}, false, false, false},
		{"clone-2-zero-survivors", zeroSurvivors(clone(NewPaldiaCloneK(2, false), 18)),
			[]K{revoked, cancel}, false, false, false},
		{"hedge-p90-zero-survivors", zeroSurvivors(clone(NewPaldiaHedged(90), 19)),
			[]K{revoked, cloned}, false, false, false},
		{"paldia-stalled", stalled(Config{Model: resnet, Scheme: NewPaldia()}), nil, true, false, false},
		// Only GPU jobs stall: CPU jobs finish and their recycled job states
		// carry later requests, so the in-flight ones are found out of
		// arrival order; the backlog behind them is flushed.
		{"paldia-gpu-stalled", Config{Model: resnet, Trace: azure(20, 300), Scheme: NewPaldia(), HostFactorGPU: 1e5},
			nil, true, true, false},
		{"clone-2-stalled", stalled(clone(NewPaldiaCloneK(2, false), 0)), nil, true, true, false},
		{"hedge-p90-stalled", stalled(clone(NewPaldiaHedged(90), 0)), nil, true, true, false},
		// Failures on stalled pools kill every copy of the sets in flight,
		// which then fail whole.
		{"clone-2-stalled-failures", failures(stalled(clone(NewPaldiaCloneK(2, false), 0))), []K{failed}, true, true, true},
		{"hedge-p90-stalled-failures", failures(stalled(clone(NewPaldiaHedged(90), 0))), []K{failed}, true, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			d := newSpanDiff()
			cfg := c.cfg
			cfg.Telemetry = d.sink()
			cfg.SampleEvery = time.Second
			Run(cfg)
			d.check(t, c.name)
			for _, k := range c.need {
				if !d.ref.seen[k] {
					t.Errorf("%s: no %s event; the case lost its coverage", c.name, k)
				}
			}
			if c.lost && d.ends.lost == 0 {
				t.Errorf("%s: no request lost with its job; the case lost its coverage", c.name)
			}
			if c.open != (d.ends.open > 0) || c.flushed != (d.ends.flushed > 0) {
				t.Errorf("%s: %d spans in flight and %d flushed at the end; want in flight %v, flushed %v",
					c.name, d.ends.open, d.ends.flushed, c.open, c.flushed)
			}
		})
	}
	t.Run("multi-2", func(t *testing.T) {
		t.Parallel()
		d := newSpanDiff()
		RunMulti(MultiConfig{
			Workloads: []Workload{
				{Model: resnet, Trace: azure(15, 150)},
				{Model: model.MustByName("MobileNet"), Trace: azure(16, 200)},
			},
			Scheme:    NewPaldia(),
			Telemetry: d.sink(),
		})
		d.check(t, "multi-2")
	})
	// RunMulti takes no host factor; the runtime it wraps does. Two stalled
	// tenants dispatch batch by batch, tenant by tenant, so their in-flight
	// requests are found out of arrival order.
	t.Run("multi-2-stalled", func(t *testing.T) {
		t.Parallel()
		d := newSpanDiff()
		cfg := stalled(Config{Scheme: NewPaldia(), Telemetry: d.sink()})
		start(cfg, []Workload{
			{Model: resnet, Trace: cfg.Trace},
			{Model: model.MustByName("MobileNet"), Trace: trace.Azure(sim.NewRNG(18), 50, 10*time.Second)},
		}).settle()
		d.check(t, "multi-2-stalled")
		if d.ends.open == 0 {
			t.Error("multi-2-stalled: no request in flight at the end; the case lost its coverage")
		}
	})
}

// The reference must count clone/hedge copies on the span, treat a copy's
// cancellation as its job's ExecEnd (so spans whose primary copy lost the
// race finish promptly), and leave non-redundant spans untouched — the
// semantics the runtime's clone-set spans are compared against.
func TestSpanReferenceCloneCounters(t *testing.T) {
	var done []*telemetry.Span
	a := newSpanReference(func(s *telemetry.Span) { done = append(done, s) })

	ev := func(k telemetry.Kind, at time.Duration, req, job int64, detail string) {
		e := telemetry.Ev(at, k)
		e.Req, e.Job, e.Detail = req, job, detail
		a.Event(e)
	}

	// Request 1: primary job 10 dispatched, clone job 11, hedge backup job 12.
	ev(telemetry.Arrived, 0, 1, 0, "")
	ev(telemetry.Batched, 1*time.Millisecond, 1, 0, "")
	ev(telemetry.Dispatched, 2*time.Millisecond, 1, 10, "spatial")
	ev(telemetry.Cloned, 2*time.Millisecond, 1, 11, "clone")
	ev(telemetry.Queued, 2*time.Millisecond, 0, 10, "spatial")
	ev(telemetry.ExecStart, 2*time.Millisecond, 0, 10, "")
	ev(telemetry.Cloned, 30*time.Millisecond, 1, 12, "hedge")
	// The clone (job 11) wins: primary and hedge are cancelled, then the
	// request completes.
	ev(telemetry.CloneCancelled, 50*time.Millisecond, 1, 10, "")
	ev(telemetry.CloneCancelled, 50*time.Millisecond, 1, 12, "")
	ev(telemetry.Completed, 50*time.Millisecond, 1, 11, "")

	if len(done) != 1 {
		t.Fatalf("finished %d spans, want 1 (cancel must resolve the primary job)", len(done))
	}
	s := done[0]
	if s.Clones != 2 || !s.Hedged || s.Cancelled != 2 {
		t.Fatalf("clones=%d hedged=%v cancelled=%d, want 2/true/2", s.Clones, s.Hedged, s.Cancelled)
	}
	if s.ExecEnd != 50*time.Millisecond {
		t.Fatalf("primary ExecEnd = %v, want the cancel instant 50ms", s.ExecEnd)
	}
	if s.Latency() != 50*time.Millisecond {
		t.Fatalf("latency = %v, want 50ms", s.Latency())
	}
}

// A span whose Completed event arrives before its job's ExecEnd must not
// finish with unset exec stamps: the reference holds it until they land.
func TestSpanReferenceHoldsForExecEnd(t *testing.T) {
	var done []*telemetry.Span
	a := newSpanReference(func(s *telemetry.Span) { done = append(done, s) })

	d := telemetry.Ev(time.Millisecond, telemetry.Dispatched)
	d.Req, d.Job = 1, 9
	a.Event(d)
	c := telemetry.Ev(5*time.Millisecond, telemetry.Completed)
	c.Req, c.Job = 1, 9
	a.Event(c)
	if len(done) != 0 {
		t.Fatal("span finished before its job's ExecEnd")
	}
	e := telemetry.Ev(4*time.Millisecond, telemetry.ExecEnd)
	e.Job = 9
	a.Event(e)
	if len(done) != 1 || done[0].ExecEnd != 4*time.Millisecond {
		t.Fatal("span not finished once the exec stamps landed")
	}
}
