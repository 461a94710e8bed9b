package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Hub is the plane's telemetry sink and state store. It consumes the typed
// event bus (combined into Config.Telemetry alongside any other sinks) and
// the spans the runtime builds, keeps per-tenant compliance counters, the latest sampled gauges and operational counters,
// feeds the burn-rate tracker, and broadcasts a rendered feed to SSE
// subscribers. One mutex guards everything: the simulation goroutine writes
// through Event, HTTP handler goroutines read through Snapshot/Subscribe.
type Hub struct {
	mu sync.Mutex

	slo  time.Duration
	burn *BurnTracker

	vt         time.Duration // latest virtual time observed on the bus
	eventsSeen uint64

	tenants  map[int]*tenantCounters
	inFlight int // requests arrived whose finished span has not come back

	gauges  map[string]float64 // latest Sample value per series
	gaugeAt map[string]time.Duration

	coldBoots   uint64 // synchronous, request-blocking container boots
	prewarms    uint64 // containers started in the background
	reaps       uint64 // idle containers reaped past keep-alive
	hwSwitches  uint64
	nodesUp     uint64 // NodeAcquired
	nodesDown   uint64 // NodeReleased
	nodesFailed uint64
	scaleOuts   uint64
	scaleIns    uint64

	alerts []Alert
	done   bool

	subs      map[*Subscriber]struct{}
	dropTotal uint64
}

// tenantCounters is the per-tenant compliance ledger, fed from the runtime's
// spans (latency judged against the SLO) and Arrived events.
type tenantCounters struct {
	Arrived    uint64
	Completed  uint64
	Failed     uint64
	Violations uint64 // failed or over-SLO
}

// NewHub returns a hub judging spans against slo and feeding burn. burn may
// be nil (no burn tracking).
func NewHub(slo time.Duration, burn *BurnTracker) *Hub {
	h := &Hub{
		slo:     slo,
		burn:    burn,
		tenants: make(map[int]*tenantCounters),
		gauges:  make(map[string]float64),
		gaugeAt: make(map[string]time.Duration),
		subs:    make(map[*Subscriber]struct{}),
	}
	return h
}

// Lifecycle reports that the hub consumes lifecycle events: every event
// advances its virtual clock (and with it the burn-rate windows), counts
// toward events_seen, and Arrived feeds the per-tenant ledger.
func (h *Hub) Lifecycle() bool { return true }

// Event implements telemetry.Sink. It is called from the simulation
// goroutine only, like every other sink on the bus.
func (h *Hub) Event(e telemetry.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.eventsSeen++
	if e.At > h.vt {
		h.vt = e.At
		if h.burn != nil {
			h.burn.Tick(e.At)
		}
	}

	switch e.Kind {
	case telemetry.Sample:
		h.gauges[e.Detail] = e.Value
		h.gaugeAt[e.Detail] = e.At
		if len(h.subs) > 0 {
			h.broadcast("gauge", gaugeJSON{AtNs: int64(e.At), Name: e.Detail, Value: e.Value})
		}
		return
	case telemetry.Arrived:
		h.tenant(e.Tenant).Arrived++
	case telemetry.ContainerBoot:
		h.coldBoots++
	case telemetry.ContainerPrewarm:
		h.prewarms += uint64(e.N)
	case telemetry.ContainerReaped:
		h.reaps += uint64(e.N)
	case telemetry.HWSwitch:
		h.hwSwitches++
	case telemetry.NodeAcquired:
		h.nodesUp++
	case telemetry.NodeReleased:
		h.nodesDown++
	case telemetry.NodeFailed:
		h.nodesFailed++
	case telemetry.ScaleOut:
		h.scaleOuts++
	case telemetry.ScaleIn:
		h.scaleIns++
	}

	// Control-plane events (no request scope) are interesting enough to
	// stream individually; per-request lifecycle events would flood the feed
	// and are represented by their span instead.
	if e.Req < 0 && len(h.subs) > 0 {
		h.broadcast("ctrl", ctrlJSON{
			AtNs: int64(e.At), Kind: e.Kind.String(), Node: e.Node,
			Spec: e.Spec, N: e.N, Detail: e.Detail,
		})
	}
}

// Arrive implements telemetry.SpanSink: one more request is in flight.
func (h *Hub) Arrive() {
	h.mu.Lock()
	h.inFlight++
	h.mu.Unlock()
}

// Span implements telemetry.SpanSink: a finished request's span is judged
// against the SLO, fed to the burn tracker and streamed. A request still
// open when the run ended stays in flight.
func (h *Hub) Span(s *telemetry.Span) {
	if !s.Done() {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.inFlight--
	tc := h.tenant(s.Tenant)
	bad := s.Failed || s.Latency() > h.slo
	if s.Failed {
		tc.Failed++
	} else {
		tc.Completed++
	}
	if bad {
		tc.Violations++
	}
	if h.burn != nil {
		h.burn.Observe(s.Completed, bad)
	}
	if len(h.subs) > 0 {
		h.broadcast("span", telemetry.SpanJSON(s))
	}
}

func (h *Hub) tenant(i int) *tenantCounters {
	tc := h.tenants[i]
	if tc == nil {
		tc = &tenantCounters{}
		h.tenants[i] = tc
	}
	return tc
}

// alert records and broadcasts one burn-rate transition. It is installed as
// the BurnTracker callback, which only ever runs inside Event's lock.
func (h *Hub) alert(a Alert) {
	h.alerts = append(h.alerts, a)
	h.broadcast("alert", a)
}

// MarkDone flags the replay finished and tells every subscriber: live
// dashboards stop expecting data and the smoke test can assert a clean end.
func (h *Hub) MarkDone() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.done = true
	h.broadcast("done", doneJSON{AtNs: int64(h.vt)})
}

type gaugeJSON struct {
	AtNs  int64   `json:"at_ns"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

type ctrlJSON struct {
	AtNs   int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	Node   int    `json:"node"`
	Spec   string `json:"spec,omitempty"`
	N      int    `json:"n,omitempty"`
	Detail string `json:"detail,omitempty"`
}

type doneJSON struct {
	AtNs int64 `json:"at_ns"`
}

// --- SSE broadcast -----------------------------------------------------------

// FeedEvent is one rendered server-sent event: a name and a JSON payload.
type FeedEvent struct {
	Name string
	Data []byte
}

// Subscriber is one /events consumer. Events are delivered through a
// buffered channel; when the consumer can't keep up the hub drops events
// for it (counting drops) rather than ever blocking the simulation.
type Subscriber struct {
	C       <-chan FeedEvent
	ch      chan FeedEvent
	dropped uint64
}

// Subscribe registers a subscriber with the given buffer (<=0 defaults to
// 256 events).
func (h *Hub) Subscribe(buffer int) *Subscriber {
	if buffer <= 0 {
		buffer = 256
	}
	s := &Subscriber{ch: make(chan FeedEvent, buffer)}
	s.C = s.ch
	h.mu.Lock()
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	return s
}

// Unsubscribe removes the subscriber and closes its channel.
func (h *Hub) Unsubscribe(s *Subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; ok {
		delete(h.subs, s)
		close(s.ch)
	}
}

// Subscribers returns the current subscriber count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// broadcast renders once and fans out non-blocking; callers hold h.mu. Hot
// callers check for subscribers first, so that no payload is built (and
// boxed) for nobody.
func (h *Hub) broadcast(name string, payload any) {
	if len(h.subs) == 0 {
		return
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	ev := FeedEvent{Name: name, Data: data}
	for s := range h.subs {
		select {
		case s.ch <- ev:
		default:
			s.dropped++
			h.dropTotal++
		}
	}
}

// --- snapshots ---------------------------------------------------------------

// TenantState is one tenant's ledger in a state snapshot.
type TenantState struct {
	Tenant     int     `json:"tenant"`
	Arrived    uint64  `json:"arrived"`
	Completed  uint64  `json:"completed"`
	Failed     uint64  `json:"failed"`
	Violations uint64  `json:"violations"`
	Compliance float64 `json:"compliance"`
}

// State is the hub's full point-in-time view, served as JSON at /state and
// the source for /metrics.
type State struct {
	VirtualTime   time.Duration      `json:"virtual_time_ns"`
	Done          bool               `json:"done"`
	EventsSeen    uint64             `json:"events_seen"`
	InFlight      int                `json:"in_flight_requests"`
	Tenants       []TenantState      `json:"tenants"`
	Gauges        map[string]float64 `json:"gauges"`
	Burn          map[string]float64 `json:"burn,omitempty"`
	BurnFiring    bool               `json:"burn_firing"`
	Alerts        []Alert            `json:"alerts"`
	ColdBoots     uint64             `json:"cold_boots"`
	Prewarms      uint64             `json:"prewarms"`
	Reaps         uint64             `json:"reaps"`
	HWSwitches    uint64             `json:"hw_switches"`
	NodesAcquired uint64             `json:"nodes_acquired"`
	NodesReleased uint64             `json:"nodes_released"`
	NodesFailed   uint64             `json:"nodes_failed"`
	ScaleOuts     uint64             `json:"scale_outs"`
	ScaleIns      uint64             `json:"scale_ins"`
	Subscribers   int                `json:"subscribers"`
	FeedDropped   uint64             `json:"feed_dropped"`
}

// Snapshot returns a consistent copy of the hub's state, safe to read from
// any goroutine.
func (h *Hub) Snapshot() State {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := State{
		VirtualTime:   h.vt,
		Done:          h.done,
		EventsSeen:    h.eventsSeen,
		InFlight:      h.inFlight,
		Gauges:        make(map[string]float64, len(h.gauges)),
		ColdBoots:     h.coldBoots,
		Prewarms:      h.prewarms,
		Reaps:         h.reaps,
		HWSwitches:    h.hwSwitches,
		NodesAcquired: h.nodesUp,
		NodesReleased: h.nodesDown,
		NodesFailed:   h.nodesFailed,
		ScaleOuts:     h.scaleOuts,
		ScaleIns:      h.scaleIns,
		Subscribers:   len(h.subs),
		FeedDropped:   h.dropTotal,
	}
	for k, v := range h.gauges {
		st.Gauges[k] = v
	}
	ids := make([]int, 0, len(h.tenants))
	for id := range h.tenants {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		tc := h.tenants[id]
		ts := TenantState{
			Tenant: id, Arrived: tc.Arrived, Completed: tc.Completed,
			Failed: tc.Failed, Violations: tc.Violations, Compliance: 1,
		}
		if n := tc.Completed + tc.Failed; n > 0 {
			ts.Compliance = float64(n-tc.Violations) / float64(n)
		}
		st.Tenants = append(st.Tenants, ts)
	}
	st.Alerts = append([]Alert(nil), h.alerts...)
	if h.burn != nil {
		st.Burn = h.burn.Burn()
		st.BurnFiring = h.burn.Firing()
	}
	return st
}

// Alerts returns a copy of every burn-rate transition so far.
func (h *Hub) Alerts() []Alert {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Alert(nil), h.alerts...)
}
