package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Metamorphic properties: relations that must hold between *pairs* of runs
// (or pairs of model evaluations) when the input is transformed in a known
// way. They catch bugs no single-run oracle can — a simulator that is
// self-consistently wrong passes every absolute check but breaks these.

// stretch returns a copy of tr with every arrival instant and the duration
// scaled by k (integer, exact in time.Duration arithmetic).
func stretch(tr *trace.Trace, k int64) *trace.Trace {
	arr := make([]time.Duration, len(tr.Arrivals))
	for i, a := range tr.Arrivals {
		arr[i] = a * time.Duration(k)
	}
	return trace.FromArrivals(tr.Name+"-stretched", arr, tr.Duration*time.Duration(k))
}

// Stretching a trace by k preserves the request count, divides the mean rate
// by exactly k, and maps window counts onto k-times-wider windows exactly.
func TestMetamorphicTraceStretchExactRelations(t *testing.T) {
	tr := shortAzure(11, 300, 2*time.Minute)
	const k = 3
	st := stretch(tr, k)

	if st.Count() != tr.Count() {
		t.Fatalf("stretching changed the request count: %d vs %d", st.Count(), tr.Count())
	}
	if got, want := st.MeanRPS(), tr.MeanRPS()/k; math.Abs(got-want) > 1e-12*want {
		t.Fatalf("stretched MeanRPS %v, want %v/%d = %v", got, tr.MeanRPS(), k, want)
	}
	w := 10 * time.Second
	orig := tr.WindowCounts(w)
	wide := st.WindowCounts(w * k)
	if len(orig) != len(wide) {
		t.Fatalf("window count vectors differ in length: %d vs %d", len(orig), len(wide))
	}
	for i := range orig {
		if orig[i] != wide[i] {
			t.Fatalf("window %d: %d arrivals before stretch, %d after", i, orig[i], wide[i])
		}
	}
}

// Stretching a trace (same work, k× slower) must not lose requests, must
// never *hurt* compliance — the same batches arrive with k× more slack —
// and must not cost more than k× the original: the scheduler may exploit
// the lighter rate with cheaper hardware, but a k×-longer run of the
// original plan is always available to it.
func TestMetamorphicTraceStretchRunRelations(t *testing.T) {
	tr := shortAzure(11, 300, 90*time.Second)
	st := stretch(tr, 2)
	m := model.MustByName("ResNet 50")
	a := Run(Config{Model: m, Trace: tr, Scheme: NewPaldia()})
	b := Run(Config{Model: m, Trace: st, Scheme: NewPaldia()})
	if a.Requests != tr.Count() || b.Requests != st.Count() {
		t.Fatal("requests lost")
	}
	if b.Cost > 2*a.Cost*1.01 {
		t.Fatalf("half the rate over 2x the time cost more than 2x: $%.4f vs $%.4f",
			b.Cost, a.Cost)
	}
	if b.SLOCompliance < a.SLOCompliance-0.01 {
		t.Fatalf("halving the arrival rate hurt compliance: %.3f vs %.3f",
			b.SLOCompliance, a.SLOCompliance)
	}
}

// Tightening the SLO can only shrink the pool of Eq. (1)-capable hardware —
// a node that serves a batch within 100 ms also serves it within 300 ms —
// and Paldia's selection always draws from that pool. This is the paper's
// feasibility argument stated as a metamorphic property of the policy.
// (Neither the *chosen* node's capability nor end-to-end run cost is
// monotone in SLO tightness: choose_best_HW's slack window may legally pick
// a bigger node at a looser target, and a cheaper node drains its backlog
// for longer. Only the pool relation is a theorem.)
func TestMetamorphicSLOTighteningShrinksCapablePool(t *testing.T) {
	m := model.MustByName("ResNet 50")
	policy := NewPaldia().Policy
	fallback := hardware.MostPerformant(hardware.GPU)
	slos := []time.Duration{400 * time.Millisecond, 300 * time.Millisecond,
		200 * time.Millisecond, 150 * time.Millisecond, 100 * time.Millisecond}
	for _, rate := range []float64{10, 50, 150, 400, 900, 2000} {
		var looser []*profile.Entry
		for i, slo := range slos {
			pool := profile.RowsFor(m).AppendCapable(nil, rate, slo)
			if len(pool) == 0 {
				t.Fatalf("rate %.0f SLO %v: capable pool empty (fallback contract broken)", rate, slo)
			}
			if i > 0 {
				for _, e := range pool {
					if e.Hardware.Name != fallback.Name && !containsSpec(looser, e.Hardware) {
						t.Fatalf("rate %.0f: %s capable at SLO %v but not at looser %v",
							rate, e.Hardware.Name, slo, slos[i-1])
					}
				}
			}
			looser = pool
			st := &State{
				Model: m, SLO: slo, Window: DefaultDispatchWindow,
				PredictedRPS: rate, ObservedRPS: rate,
			}
			if spec := policy.DesiredHardware(st); !containsSpec(pool, spec) {
				t.Fatalf("rate %.0f SLO %v: policy chose %s, outside its capable pool",
					rate, slo, spec.Name)
			}
		}
	}
}

func containsSpec(pool []*profile.Entry, hw hardware.Spec) bool {
	for _, e := range pool {
		if e.Hardware.Name == hw.Name {
			return true
		}
	}
	return false
}

// The contention penalty curve is weakly monotone: more aggregate bandwidth
// demand never speeds anyone up, at every layer of the performance model.
func TestMetamorphicContentionMonotone(t *testing.T) {
	// profile.Penalty: monotone in aggregate demand.
	prev := 0.0
	for d := 0.0; d <= 4.0; d += 0.01 {
		p := profile.Penalty(d)
		if p < prev {
			t.Fatalf("Penalty(%.2f) = %v below Penalty at lower demand %v", d, p, prev)
		}
		if p < 1 {
			t.Fatalf("Penalty(%.2f) = %v speeds execution up", d, p)
		}
		prev = p
	}
	// profile.Slowdown: monotone in the pool total for a fixed own-FBR.
	for _, own := range []float64{0.05, 0.2, 0.5} {
		prev = 0
		for total := own; total <= 4.0; total += 0.01 {
			s := profile.Slowdown(total, own)
			if s < prev {
				t.Fatalf("Slowdown(total=%.2f, own=%.2f) = %v decreased with load", total, own, s)
			}
			prev = s
		}
	}
	// profile.ClientOverhead: more co-resident MPS clients never run faster.
	prevo := 0.0
	for k := 0; k <= 48; k++ {
		o := profile.ClientOverhead(k)
		if o < prevo {
			t.Fatalf("ClientOverhead(%d) = %v below overhead with fewer clients", k, o)
		}
		prevo = o
	}
}

// Equation (1) is weakly monotone in offered load: more outstanding requests
// never finish sooner, whatever the split, and pre-existing device demand
// never helps either.
func TestMetamorphicTMaxMonotoneInLoad(t *testing.T) {
	base := perfmodel.Inputs{
		Solo:      40 * time.Millisecond,
		BatchSize: 8,
		FBR:       0.22,
		SLO:       200 * time.Millisecond,
	}
	for _, y := range []int{0, 4, 16} {
		var prev time.Duration
		for n := y; n <= 160; n += 8 {
			in := base
			in.N = n
			got := perfmodel.TMax(in, y)
			if got < prev {
				t.Fatalf("TMax(N=%d, y=%d) = %v below TMax at lighter load %v", n, y, got, prev)
			}
			prev = got
		}
	}
	// Existing demand: a busier device can only slow the new work down.
	var prev time.Duration
	for d := 0.0; d <= 2.0; d += 0.05 {
		in := base
		in.N = 32
		in.ExistingDemand = d
		got := perfmodel.TMax(in, 8)
		if got < prev {
			t.Fatalf("TMax with existing demand %.2f = %v beat an idler device's %v", d, got, prev)
		}
		prev = got
	}
}
