package obs

import (
	"fmt"
	"time"
)

// BurnWindow is one look-back window of the multi-window burn-rate rule.
type BurnWindow struct {
	// Name labels the window in gauges and alerts ("5m", "1h").
	Name string
	// Length is the window's virtual-time span.
	Length time.Duration
	// Threshold is the burn rate at or above which this window votes to
	// fire. The SRE convention for a fast page is 14.4 — burning 2% of a
	// 30-day budget in one hour — which both defaults use, so short spikes
	// must also show up in the longer window before an alert fires.
	Threshold float64
}

// DefaultBurnWindows is the classic fast/slow multi-window pair, in virtual
// time: an alert needs the 5m AND the 1h window above threshold, making it
// both quick to fire under a real outage and immune to single-bucket blips.
func DefaultBurnWindows() []BurnWindow {
	return []BurnWindow{
		{Name: "5m", Length: 5 * time.Minute, Threshold: 14.4},
		{Name: "1h", Length: time.Hour, Threshold: 14.4},
	}
}

// Alert is one threshold-crossing transition of the burn-rate rule.
type Alert struct {
	// At is the virtual time of the transition.
	At time.Duration `json:"at_ns"`
	// Firing is true when the alert began firing, false when it resolved.
	Firing bool `json:"firing"`
	// Burn carries each window's burn rate at the transition, keyed by
	// window name.
	Burn map[string]float64 `json:"burn"`
}

// String renders the alert for logs.
func (a Alert) String() string {
	state := "RESOLVED"
	if a.Firing {
		state = "FIRING"
	}
	return fmt.Sprintf("slo-burn %s at %v %v", state, a.At, a.Burn)
}

// BurnTracker computes multi-window error-budget burn from a stream of
// request outcomes in virtual time. Burn rate over a window is the
// window's bad-request fraction divided by the error budget (1-objective):
// burn 1 spends the budget exactly at the objective's pace, burn N spends
// it N times too fast. The tracker buckets outcomes by burnBucketWidth and
// keeps per-window running sums, so an observation costs O(1) amortized and
// memory is O(longest window / burnBucketWidth), independent of request
// count.
//
// Not safe for concurrent use on its own; the Hub serializes access.
type BurnTracker struct {
	objective float64
	windows   []burnWindowState
	onAlert   func(Alert)

	buckets []burnBucket // ring, indexed by (vt/burnBucketWidth) % len
	head    int64        // highest bucket index ever touched
	firing  bool
}

type burnBucket struct {
	idx        int64 // absolute bucket index this slot currently holds
	total, bad uint64
}

type burnWindowState struct {
	BurnWindow
	buckets    int64 // window length in buckets
	total, bad uint64
	tail       int64 // first absolute bucket index inside the window
}

// burnBucketWidth is the virtual time one burn bucket covers.
const burnBucketWidth = time.Second

// NewBurnTracker returns a tracker judging against the given compliance
// objective (e.g. 0.99 = 1% error budget) over the given windows. onAlert,
// when non-nil, receives every firing/resolving transition of the combined
// rule (every window at or above its threshold => firing).
func NewBurnTracker(objective float64, windows []BurnWindow, onAlert func(Alert)) *BurnTracker {
	if len(windows) == 0 {
		windows = DefaultBurnWindows()
	}
	t := &BurnTracker{
		objective: objective,
		onAlert:   onAlert,
	}
	var longest int64
	for _, w := range windows {
		n := int64(w.Length / burnBucketWidth)
		if n < 1 {
			n = 1
		}
		if n > longest {
			longest = n
		}
		t.windows = append(t.windows, burnWindowState{BurnWindow: w, buckets: n})
	}
	t.buckets = make([]burnBucket, longest+1)
	for i := range t.buckets {
		t.buckets[i].idx = -1
	}
	return t
}

// Observe records one request outcome at virtual time vt. bad marks an
// error-budget-consuming outcome (failed or SLO-violating).
func (t *BurnTracker) Observe(vt time.Duration, bad bool) {
	idx := int64(vt / burnBucketWidth)
	t.advanceTo(idx)
	if idx < t.head {
		// A straggling outcome older than the newest bucket (cross-tenant
		// interleaving); fold it into the newest so window sums stay exact.
		idx = t.head
	}
	slot := &t.buckets[idx%int64(len(t.buckets))]
	slot.total++
	for i := range t.windows {
		t.windows[i].total++
	}
	if bad {
		slot.bad++
		for i := range t.windows {
			t.windows[i].bad++
		}
	}
	t.evaluate(vt)
}

// Tick advances the tracker's notion of time without an outcome, expiring
// old buckets so burn decays (and alerts resolve) during quiet periods.
func (t *BurnTracker) Tick(vt time.Duration) {
	t.advanceTo(int64(vt / burnBucketWidth))
	t.evaluate(vt)
}

// advanceTo rolls the ring forward to bucket idx, reclaiming any slot about
// to be reused and expiring buckets that fell out of each window.
func (t *BurnTracker) advanceTo(idx int64) {
	if idx < t.head {
		return
	}
	t.head = idx
	n := int64(len(t.buckets))
	slot := &t.buckets[idx%n]
	if slot.idx != idx {
		// The slot still holds a bucket one ring-length old; its counts have
		// already been expired from every window (windows are at most
		// len(buckets)-1 long), so it can simply be reset.
		slot.idx = idx
		slot.total, slot.bad = 0, 0
	}
	for i := range t.windows {
		w := &t.windows[i]
		newTail := idx - w.buckets + 1
		if newTail < 0 {
			newTail = 0
		}
		for ; w.tail < newTail; w.tail++ {
			s := &t.buckets[w.tail%n]
			if s.idx != w.tail {
				continue // bucket was never written
			}
			w.total -= s.total
			w.bad -= s.bad
		}
	}
}

// Burn returns the current burn rate of each window, keyed by name. An
// empty window burns 0.
func (t *BurnTracker) Burn() map[string]float64 {
	out := make(map[string]float64, len(t.windows))
	for i := range t.windows {
		out[t.windows[i].Name] = t.windows[i].rate(t.objective)
	}
	return out
}

func (w *burnWindowState) rate(objective float64) float64 {
	if w.total == 0 {
		return 0
	}
	budget := 1 - objective
	if budget <= 0 {
		budget = 1e-9
	}
	return (float64(w.bad) / float64(w.total)) / budget
}

// Firing reports whether the combined rule is currently firing.
func (t *BurnTracker) Firing() bool { return t.firing }

// evaluate applies the AND-across-windows rule and emits transitions.
func (t *BurnTracker) evaluate(vt time.Duration) {
	firing := true
	for i := range t.windows {
		if t.windows[i].rate(t.objective) < t.windows[i].Threshold {
			firing = false
			break
		}
	}
	if firing == t.firing {
		return
	}
	t.firing = firing
	if t.onAlert != nil {
		t.onAlert(Alert{At: vt, Firing: firing, Burn: t.Burn()})
	}
}
