// Package core implements the request-serving schemes the paper evaluates:
// Paldia itself (Hardware Selection per Algorithm 1 plus the hybrid
// time/spatial Job Distributor built on Eq. (1)) and the baselines —
// INFless/Llama ($ and P variants, spatial-only sharing), Molecule(beta)
// ($ and P, time-sharing only), the clairvoyant Oracle, and the Offline
// Hybrid of the motivation study — together with the serving runtime
// (gateway, dispatcher, batching, autoscaling, node procurement) they all
// run on.
package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/profile"
	"repro/internal/queueing"
)

// State is the snapshot of serving conditions a policy decides on.
type State struct {
	// Now is the current virtual time.
	Now time.Duration
	// Model is the workload being served.
	Model model.Spec
	// SLO is the per-request latency target.
	SLO time.Duration
	// Current is the node type currently serving; HasCurrent is false
	// before the first node is up.
	Current    hardware.Spec
	HasCurrent bool
	// Entry is the profiling entry for (Model, Current); read-only.
	Entry *profile.Entry
	// PredictedRPS is the predictor's rate forecast over the horizon
	// (EWMA for Paldia, clairvoyant for Oracle).
	PredictedRPS float64
	// ObservedRPS is the arrival rate measured over the last observation
	// window — what the reactive baselines act on.
	ObservedRPS float64
	// Pending is the number of requests awaiting dispatch.
	Pending int
	// Window is the dispatch window (requests dispatched together arrive
	// within one window).
	Window time.Duration
	// ActiveDemand is the aggregate FBR executing on the current device.
	ActiveDemand float64
	// ActiveCompute is the aggregate compute occupancy executing there.
	ActiveCompute float64
	// ActiveJobs is the number of jobs executing there.
	ActiveJobs int
	// Backlog is the current device's outstanding solo-equivalent work.
	Backlog time.Duration
	// LaneBacklog is the solo-equivalent work already in the time-sharing
	// lane (queued requests wait behind it).
	LaneBacklog time.Duration

	// rows are Model's profiling rows, resolved once per tenant by the
	// runner; a State built without them (or whose Model changed since)
	// resolves them on first use (see profileRows).
	rows *profile.Rows

	// poolScratch and candScratch back DesiredHardware's capable-pool and
	// candidate lists, reused across monitor ticks so the steady-state
	// selection pass allocates nothing. They live on the State (one per
	// runner) rather than the Policy because schemes are shared across
	// concurrently running experiments and must stay stateless.
	poolScratch []*profile.Entry
	candScratch []hwCand
}

// profileRows returns the State's profiling rows for Model, resolving them
// if the State carries none or carries another model's.
func (s *State) profileRows() *profile.Rows {
	if s.rows == nil || s.rows.Model != s.Model {
		s.rows = profile.RowsFor(s.Model)
	}
	return s.rows
}

// hwCand pairs a probed node type's row with its predicted T_max.
type hwCand struct {
	e    *profile.Entry
	tmax time.Duration
}

// Policy is a request-serving scheme: a hardware-selection rule plus a
// GPU-sharing rule.
type Policy interface {
	// Name identifies the scheme in reports.
	Name() string
	// DesiredHardware returns the node type the scheme wants for upcoming
	// traffic. Called every monitor interval.
	DesiredHardware(s *State) hardware.Spec
	// SplitY returns y: how many of the n pending requests to time-share
	// (queue); the remaining n-y are spatially shared via MPS. On CPU nodes
	// the runtime serializes everything regardless.
	SplitY(s *State, n int) int
	// WaitLimit is the number of consecutive hardware mismatches required
	// before reconfiguring (Algorithm 1's wait_limit; 3 for Paldia).
	WaitLimit() int
}

// composite assembles a Policy from parts; all schemes are instances.
type composite struct {
	name      string
	hw        func(s *State) hardware.Spec
	split     func(s *State, n int) int
	waitLimit int
}

func (c *composite) Name() string                           { return c.name }
func (c *composite) DesiredHardware(s *State) hardware.Spec { return c.hw(s) }
func (c *composite) SplitY(s *State, n int) int             { return c.split(s, n) }
func (c *composite) WaitLimit() int                         { return c.waitLimit }

// newScheme returns the scheme running the policy assembled from a name, a
// hardware-selection rule, a GPU-sharing rule and Algorithm 1's wait_limit.
func newScheme(name string, hw func(*State) hardware.Spec, split func(*State, int) int, waitLimit int) Scheme {
	return Scheme{Policy: &composite{name: name, hw: hw, split: split, waitLimit: waitLimit}}
}

// --- Hardware-selection rules ----------------------------------------------

// chooseBestHWWindow is the paper's choose_best_HW slack: the cheapest node
// within ~50 ms of the most performant candidate's T_max wins.
const chooseBestHWWindow = 50 * time.Millisecond

// paldiaPlanN converts a predicted rate into Eq. (1)'s N: the requests that
// must coexist within one SLO window.
func paldiaPlanN(rate float64, slo time.Duration, pending int) int {
	n := int(rate * slo.Seconds())
	if pending > n {
		n = pending
	}
	return n
}

// paldiaHardware is Algorithm 1's HARDWARE_SELECTION body.
func paldiaHardware(s *State) hardware.Spec {
	e, _ := paldiaHardwareAtRate(s, s.PredictedRPS)
	return e.Hardware
}

// paldiaHardwareReactive is the no-prediction ablation: the same selection
// driven by the observed rate.
func paldiaHardwareReactive(s *State) hardware.Spec {
	e, _ := paldiaHardwareAtRate(s, s.ObservedRPS)
	return e.Hardware
}

// paldiaHardwareAtRate costs every node of the capable pool at rate and
// returns choose_best_HW's row with the best T_max. The pool stays in
// s.poolScratch until the next pass.
func paldiaHardwareAtRate(s *State, rate float64) (*profile.Entry, time.Duration) {
	// get_HW_pool, sorted by cost; appended into runner-owned scratch so the
	// per-tick pass is allocation-free once the buffers have grown.
	s.poolScratch = s.profileRows().AppendCapable(s.poolScratch[:0], rate, s.SLO)
	cands := s.candScratch[:0]
	for _, e := range s.poolScratch {
		tmax, _ := nodeTMax(s, e, rate)
		cands = append(cands, hwCand{e, tmax})
	}
	s.candScratch = cands
	return chooseBestHW(cands)
}

// nodeTMax is Algorithm 1's costing of node e at rate: its predicted T_max
// and, on a GPU node, Eq. (1)'s best y (0 on a CPU node). The live device
// state (backlog, executing jobs, lane) counts only when e is the node type
// currently serving.
func nodeTMax(s *State, e *profile.Entry, rate float64) (time.Duration, int) {
	current := s.HasCurrent && s.Current.Name == e.Hardware.Name
	if e.Hardware.Kind != hardware.GPU { // Kind, not IsGPU: its value receiver copies the Spec
		// Algorithm 1 stops probing y values for CPU candidates (there
		// is no spatial sharing to tune); every capable CPU shape is
		// still costed, since a bigger CPU node with queueing headroom
		// can beat a marginal cheap one.
		backlog := time.Duration(0)
		if current {
			backlog = s.Backlog
		}
		// A CPU node serves each dispatch window's worth of requests
		// serially; unlike the GPU case, arrivals beyond one window
		// never execute together, so T_max is approximated on a
		// window's load (sustainability is already enforced by
		// Rows.AppendCapable).
		win := s.Window
		if win <= 0 {
			win = DefaultDispatchWindow
		}
		nWin := int(rate * win.Seconds())
		if s.Pending > nWin {
			nWin = s.Pending
		}
		b := e.EffectiveBatchAt(rate, s.SLO/4)
		solo := e.SoloAt(b)
		tmax := perfmodel.ApproxCPUTMax(solo, b, nWin, backlog)
		// Serial CPU service queues at utilization: T_max is a
		// worst-case estimate, so charge a tail-flavoured M/D/1 wait.
		// This keeps the selection off marginal CPUs — the paper's CPU
		// nodes serve only comfortably low rates (up to ~25 rps for
		// high-FBR models).
		rho := queueing.Utilization(rate/float64(b), solo)
		if wait := queueing.TailWait(rho, solo); wait >= queueing.Unstable {
			tmax += s.SLO // saturated: disqualify via a large penalty
		} else {
			tmax += wait
		}
		return tmax, 0
	}
	in := perfmodel.Inputs{
		Solo:          e.SoloBatch,
		BatchSize:     e.PreferredBatch,
		FBR:           e.FBR,
		ComputeFrac:   e.ComputeFrac,
		N:             paldiaPlanN(rate, s.SLO, s.Pending),
		SLO:           s.SLO,
		PenaltyByJobs: e.PenaltyByJobs,
	}
	if current {
		in.ExistingDemand = s.ActiveDemand
		in.ExistingCompute = s.ActiveCompute
		in.ExistingJobs = s.ActiveJobs
		in.ExistingLane = s.LaneBacklog
	}
	y, tmax, _ := perfmodel.BestY(in) // serial Eq. (1) y probing per GPU
	return tmax, y
}

// chooseBestHW is Algorithm 1's choose_best_HW over the costed capable
// pool, cheapest first: the cheapest candidate within chooseBestHWWindow of
// the most performant one's T_max, returned with that best T_max. The pool
// is never empty (get_HW_pool holds at least the fallback GPU), and the
// scan stops at the latest on the best candidate itself.
func chooseBestHW(cands []hwCand) (*profile.Entry, time.Duration) {
	best := cands[0].tmax
	for _, c := range cands[1:] {
		if c.tmax < best {
			best = c.tmax
		}
	}
	i := 0
	for cands[i].tmax > best+chooseBestHWWindow {
		i++
	}
	return cands[i].e, best
}

// NodePlan is one node's line in a HardwarePlan.
type NodePlan struct {
	// Entry is the node's profiling row for the planned model.
	Entry *profile.Entry
	// Capable reports whether the node is in Algorithm 1's capable pool
	// (get_HW_pool), which holds the fallback GPU when nothing qualifies.
	Capable bool
	// TMax is the node's predicted T_max; BestY is Eq. (1)'s best y on a
	// GPU node, 0 on a CPU node.
	TMax  time.Duration
	BestY int
}

// HardwarePlan is one read-only Hardware Selection pass, laid open.
type HardwarePlan struct {
	// Nodes holds every catalog node, cheapest first, each costed as
	// Algorithm 1 costs a capable node.
	Nodes []NodePlan
	// Pick is choose_best_HW's node: the cheapest capable node whose T_max
	// is within Window of Best, the lowest capable T_max.
	Pick   hardware.Spec
	Best   time.Duration
	Window time.Duration
}

// Plan runs Paldia's Hardware Selection for m at a predicted rate under slo
// on an idle cluster: no node serving yet, nothing pending or executing,
// the default dispatch window. Its Pick comes from the pass NewPaldia's
// DesiredHardware runs, so it is what DesiredHardware returns for that
// State; the table costs every node again, capable or not.
func Plan(m model.Spec, rate float64, slo time.Duration) HardwarePlan {
	s := &State{Model: m, SLO: slo}
	pick, best := paldiaHardwareAtRate(s, rate)
	p := HardwarePlan{Pick: pick.Hardware, Best: best, Window: chooseBestHWWindow}
	for _, e := range s.profileRows().ByCost {
		n := NodePlan{Entry: e, Capable: slices.Contains(s.poolScratch, e)}
		n.TMax, n.BestY = nodeTMax(s, e, rate)
		p.Nodes = append(p.Nodes, n)
	}
	return p
}

// cheapestIsolated is the $-variants' selection: the cheapest hardware that
// can serve one batch of requests (for the current observed rate) within the
// SLO — judged in isolation, with standard capacity headroom but no queueing
// or interference modelling and no prediction. Reacting to the observed rate
// (after the surge has already arrived) and ignoring co-location effects are
// its documented failure modes.
func cheapestIsolated(s *State) hardware.Spec {
	rate := s.ObservedRPS
	rows := s.profileRows()
	for _, e := range rows.ByCost {
		if e.SoloBatch > s.SLO*3/4 {
			continue
		}
		if rate > profile.Headroom*e.ThroughputRPS {
			continue
		}
		return e.Hardware
	}
	return rows.Fallback.Hardware
}

// fixedHW always returns the given node type (the (P) variants' V100, and
// the motivation study's pinned GPUs).
func fixedHW(spec hardware.Spec) func(*State) hardware.Spec {
	return func(*State) hardware.Spec { return spec }
}

// --- GPU-sharing rules ------------------------------------------------------

// paldiaSplit picks y by probing Eq. (1) against the live device state.
func paldiaSplit(s *State, n int) int {
	if n <= 0 || !s.Current.IsGPU() {
		return 0
	}
	in := perfmodel.Inputs{
		Solo:            s.Entry.SoloBatch,
		BatchSize:       s.Entry.PreferredBatch,
		FBR:             s.Entry.FBR,
		ComputeFrac:     s.Entry.ComputeFrac,
		N:               n,
		SLO:             s.SLO,
		ExistingDemand:  s.ActiveDemand,
		ExistingCompute: s.ActiveCompute,
		ExistingJobs:    s.ActiveJobs,
		ExistingLane:    s.LaneBacklog,
		PenaltyByJobs:   s.Entry.PenaltyByJobs,
	}
	y, _, _ := perfmodel.BestY(in)
	return y
}

func spatialAll(*State, int) int       { return 0 }
func timeShareAll(_ *State, n int) int { return n }

// fixedFraction queues a fixed share of each window's requests — the
// Offline Hybrid of the motivation experiment, whose fraction is found by an
// offline sweep.
func fixedFraction(f float64) func(*State, int) int {
	return func(_ *State, n int) int {
		y := int(f*float64(n) + 0.5)
		if y < 0 {
			y = 0
		}
		if y > n {
			y = n
		}
		return y
	}
}

// --- Scheme constructors ----------------------------------------------------

// Scheme bundles a policy with the runtime options that differ per scheme.
type Scheme struct {
	// Policy is the serving policy.
	Policy Policy
	// Clairvoyant selects the Oracle's exact-future predictor instead of
	// EWMA, and removes VM-launch and container cold-start latency from
	// hardware switches — the Oracle "knows the ideal hardware beforehand"
	// and has it ready.
	Clairvoyant bool
	// Redundancy, when active, replaces Eq. (1) splitting with redundant
	// dispatch across distinct hardware pools (see redundancy.go).
	Redundancy Redundancy
}

// Redundancy configures redundant dispatch: instead of splitting a window's
// requests between MPS and the time-share lane on one node, copies of each
// batch race on k distinct hardware pools (the processor-sharing cloning
// model of arXiv 2002.04416), or a backup copy launches once a request's
// age crosses an online latency percentile (hedging). At most one of CloneK
// and HedgePct may be set.
type Redundancy struct {
	// CloneK >= 2 dispatches every batch as CloneK copies on distinct GPU
	// pools with cancel-on-first-complete.
	CloneK int
	// Synchronized selects the PS cloning model's synchronized-service
	// variant: the request completes when every non-failed copy finishes
	// (no cancellation), trading latency for the model's analytical form.
	Synchronized bool
	// HedgePct > 0 launches one backup copy for a batch whose oldest
	// request's age crosses the tracked p(HedgePct) completion latency
	// (from metrics.AgeTracker; a fraction of the SLO before the tracker
	// has enough samples).
	HedgePct float64
}

// Active reports whether any redundant-dispatch mode is configured.
func (rd Redundancy) Active() bool { return rd.CloneK >= 2 || rd.HedgePct > 0 }

// Name returns the policy name.
func (s Scheme) Name() string { return s.Policy.Name() }

// NewPaldia returns the paper's scheme: Algorithm 1 hardware selection,
// hybrid time/spatial sharing, EWMA prediction, wait_limit 3.
func NewPaldia() Scheme {
	return newScheme("Paldia", paldiaHardware, paldiaSplit, 3)
}

// NewPaldiaWithWaitLimit returns Paldia with a non-default Algorithm 1
// wait_limit — the debounce-sweep ablation.
func NewPaldiaWithWaitLimit(waitLimit int) Scheme {
	if waitLimit < 1 {
		waitLimit = 1
	}
	return newScheme(fmt.Sprintf("Paldia (wait_limit=%d)", waitLimit), paldiaHardware, paldiaSplit, waitLimit)
}

// NewPaldiaReactive returns the no-prediction ablation: Paldia's selection
// and splitting driven by the observed rather than forecast rate.
func NewPaldiaReactive() Scheme {
	return newScheme("Paldia (reactive)", paldiaHardwareReactive, paldiaSplit, 3)
}

// NewOracle returns the clairvoyant variant: Paldia's policies with exact
// future knowledge of the trace and pre-positioned ideal hardware.
func NewOracle() Scheme {
	s := newScheme("Oracle", paldiaHardware, paldiaSplit, 1)
	s.Clairvoyant = true
	return s
}

// NewINFlessLlamaCost returns INFless/Llama ($): cheapest isolated-capable
// hardware, all requests spatially shared via MPS.
func NewINFlessLlamaCost() Scheme {
	return newScheme("INFless/Llama ($)", cheapestIsolated, spatialAll, 2)
}

// NewINFlessLlamaPerf returns INFless/Llama (P): always the most performant
// GPU, all requests spatially shared.
func NewINFlessLlamaPerf() Scheme {
	return newScheme("INFless/Llama (P)", fixedHW(hardware.MostPerformant(hardware.GPU)), spatialAll, 1)
}

// NewMoleculeCost returns Molecule (beta) ($): the same hardware selection
// as INFless/Llama ($) (Molecule has none of its own), time sharing only.
func NewMoleculeCost() Scheme {
	return newScheme("Molecule (beta) ($)", cheapestIsolated, timeShareAll, 2)
}

// NewMoleculePerf returns Molecule (beta) (P): most performant GPU, time
// sharing only.
func NewMoleculePerf() Scheme {
	return newScheme("Molecule (beta) (P)", fixedHW(hardware.MostPerformant(hardware.GPU)), timeShareAll, 1)
}

// NewPaldiaPinned pins the hardware but keeps Paldia's online hybrid
// splitting — the configuration of the resource-exhaustion study, where
// every scheme resorts to the most performant GPU and only the sharing
// policy differs.
func NewPaldiaPinned(spec hardware.Spec) Scheme {
	return newScheme("Paldia (pinned)", fixedHW(spec), paldiaSplit, 3)
}

// NewOfflineHybrid pins the hardware and queues a fixed fraction of every
// window's requests — the motivation study's offline-swept hybrid.
func NewOfflineHybrid(spec hardware.Spec, queuedFraction float64) Scheme {
	return newScheme("Offline Hybrid", fixedHW(spec), fixedFraction(queuedFraction), 1)
}

// NewTimeSharedOnly pins the hardware and time-shares everything — the
// motivation study's "Time Shared Only" scheme on the given GPU.
func NewTimeSharedOnly(spec hardware.Spec, label string) Scheme {
	return newScheme("Time Shared Only "+label, fixedHW(spec), timeShareAll, 1)
}

// NewMPSOnly pins the hardware and spatially shares everything — the
// motivation study's "MPS Only" scheme on the given GPU.
func NewMPSOnly(spec hardware.Spec, label string) Scheme {
	return newScheme("MPS Only "+label, fixedHW(spec), spatialAll, 1)
}

// NewPaldiaCloneK returns the clone-to-k scheme: Paldia's policy stack with
// every batch dispatched as k racing copies on distinct GPU pools,
// first-complete-wins with sibling cancellation (synchronized false) or
// all-copies-complete (synchronized true, the PS cloning model's
// synchronized-service variant). k is clamped to [2, 3] — the catalog has
// three distinct GPU types.
func NewPaldiaCloneK(k int, synchronized bool) Scheme {
	if k < 2 {
		k = 2
	}
	if k > 3 {
		k = 3
	}
	name := fmt.Sprintf("Paldia Clone-%d", k)
	if synchronized {
		name += " (sync)"
	}
	// Copies follow the pure-PS cloning model: every one is spatially shared.
	s := newScheme(name, paldiaHardware, spatialAll, 3)
	s.Redundancy = Redundancy{CloneK: k, Synchronized: synchronized}
	return s
}

// NewPaldiaHedged returns the hedged-dispatch scheme: Paldia's policy stack
// with a backup copy launched on a second GPU pool once a batch's oldest
// request is older than the online p(pct) completion latency.
func NewPaldiaHedged(pct float64) Scheme {
	if !(pct > 0 && pct <= 100) {
		pct = 95
	}
	s := newScheme(fmt.Sprintf("Paldia Hedge-p%g", pct), paldiaHardware, spatialAll, 3)
	s.Redundancy = Redundancy{HedgePct: pct}
	return s
}

// StandardSchemes returns the five schemes of the paper's primary
// evaluation, in its plotting order.
func StandardSchemes() []Scheme {
	return []Scheme{
		NewMoleculePerf(),
		NewINFlessLlamaPerf(),
		NewMoleculeCost(),
		NewINFlessLlamaCost(),
		NewPaldia(),
	}
}

// FailoverSpec implements the node-failure study's rule: "switch to the more
// performant hardware with the least cost"; if the failed node is already
// the most performant, fall back to the next best.
func FailoverSpec(failed hardware.Spec) hardware.Spec {
	var better []hardware.Spec
	for _, hw := range hardware.Catalog() {
		if hw.ComputeScore > failed.ComputeScore {
			better = append(better, hw)
		}
	}
	if len(better) > 0 {
		hardware.SortByCostAscending(better)
		return better[0]
	}
	// Failed node is the most performant: use the next best.
	var next hardware.Spec
	for _, hw := range hardware.Catalog() {
		if hw.Name == failed.Name {
			continue
		}
		if hw.ComputeScore > next.ComputeScore {
			next = hw
		}
	}
	return next
}
