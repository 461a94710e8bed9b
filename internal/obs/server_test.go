package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// serveRequest hand-feeds sink one request the way the runtime does: the
// Arrived event and Arrive, then the Completed event and the finished span.
func serveRequest(sink telemetry.SpanSink, req int64, arrived, completed time.Duration) {
	ev := func(at time.Duration, kind telemetry.Kind) telemetry.Event {
		return telemetry.Event{At: at, Kind: kind, Req: req, Node: -1, Job: -1}
	}
	sink.Event(ev(arrived, telemetry.Arrived))
	sink.Arrive()
	sink.Event(ev(completed, telemetry.Completed))
	var sp telemetry.Span
	sp.Reset(req, 0)
	sp.Arrived, sp.Batched, sp.Completed = arrived, arrived, completed
	sink.Span(&sp)
}

// planeWithTraffic hand-feeds the plane a tiny but complete request
// lifecycle plus a gauge sample, so handler tests don't need a full replay.
func planeWithTraffic() *Plane {
	p := NewPlane(Options{Clock: NewFakeClock()})
	sink := p.Sink()
	serveRequest(sink, 1, 10*time.Millisecond, 90*time.Millisecond)
	sink.Event(telemetry.Event{
		At: 100 * time.Millisecond, Kind: telemetry.Sample, Req: -1, Job: -1,
		Detail: "cost_usd", Value: 0.25,
	})
	return p
}

func TestServerEndpoints(t *testing.T) {
	p := planeWithTraffic()
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return resp, string(body)
	}

	resp, body := get("/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "paldia live replay") {
		t.Errorf("dashboard: status %d, body %.80q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("dashboard content-type %q", ct)
	}

	if resp, _ := get("/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", resp.StatusCode)
	}

	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("healthz: status %d, body %q", resp.StatusCode, body)
	}

	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content-type %q, want the 0.0.4 text format", ct)
	}
	samples, err := ParsePromText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("scraped /metrics does not parse: %v", err)
	}
	found := false
	for _, m := range samples {
		if m.Name == "paldia_requests_completed_total" && m.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Error("scrape is missing the completed-request counter")
	}

	resp, body = get("/state")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("state: status %d", resp.StatusCode)
	}
	var st stateJSON
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("state is not JSON: %v\n%s", err, body)
	}
	if st.EventsSeen != 3 || len(st.Tenants) != 1 || st.Tenants[0].Completed != 1 {
		t.Errorf("state snapshot off: %+v", st.State)
	}
	if st.Gauges["cost_usd"] != 0.25 {
		t.Errorf("state gauges = %v", st.Gauges)
	}
}

// End-to-end SSE: a client connected to /events receives the hello
// snapshot, then live span/gauge/done events as the simulation feeds the
// plane, and the handler returns cleanly after done.
func TestServerSSEStream(t *testing.T) {
	p := planeWithTraffic()
	srv := httptest.NewServer(Handler(p))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q, want text/event-stream", ct)
	}

	type sse struct{ name, data string }
	events := make(chan sse, 16)
	readErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		var cur sse
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "":
				if cur.name != "" {
					events <- cur
				}
				cur = sse{}
			}
		}
		readErr <- sc.Err()
	}()

	next := func(want string) sse {
		t.Helper()
		select {
		case ev := <-events:
			if ev.name != want {
				t.Fatalf("got %q event, want %q (data %.120s)", ev.name, want, ev.data)
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %q event", want)
		}
		panic("unreachable")
	}

	hello := next("hello")
	var st State
	if err := json.Unmarshal([]byte(hello.data), &st); err != nil {
		t.Fatalf("hello payload is not a state snapshot: %v", err)
	}
	if st.EventsSeen != 3 {
		t.Errorf("hello snapshot events_seen = %d, want 3", st.EventsSeen)
	}

	// Wait for the subscription to be registered before feeding more
	// traffic (the GET above returns before the handler subscribes).
	deadline := time.Now().Add(5 * time.Second)
	for p.Hub().Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	sink := p.Sink()
	serveRequest(sink, 2, 200*time.Millisecond, 350*time.Millisecond)
	span := next("span")
	var sj struct {
		Req       int64 `json:"req"`
		LatencyNs int64 `json:"latency_ns"`
	}
	if err := json.Unmarshal([]byte(span.data), &sj); err != nil {
		t.Fatalf("span payload: %v", err)
	}
	if sj.Req != 2 || sj.LatencyNs != int64(150*time.Millisecond) {
		t.Errorf("span = %+v, want req 2 with 150ms latency", sj)
	}

	sink.Event(telemetry.Event{
		At: 500 * time.Millisecond, Kind: telemetry.Sample, Req: -1, Job: -1,
		Detail: "nodes", Value: 3,
	})
	gauge := next("gauge")
	if !strings.Contains(gauge.data, `"nodes"`) {
		t.Errorf("gauge payload %q", gauge.data)
	}

	p.MarkDone()
	next("done")
	if err := <-readErr; err != nil {
		t.Fatalf("stream did not end cleanly: %v", err)
	}
	if n := p.Hub().Subscribers(); n != 0 {
		t.Errorf("%d subscribers left after the stream closed", n)
	}
}

// A slow /events subscriber loses events (counted), never the simulation.
func TestHubDropsOnSlowSubscriber(t *testing.T) {
	p := NewPlane(Options{Clock: NewFakeClock()})
	sub := p.Hub().Subscribe(2) // tiny buffer, never drained
	defer p.Hub().Unsubscribe(sub)
	sink := p.Sink()
	for i := 0; i < 10; i++ {
		sink.Event(telemetry.Event{
			At: time.Duration(i) * time.Millisecond, Kind: telemetry.Sample,
			Req: -1, Job: -1, Detail: "pending_requests", Value: float64(i),
		})
	}
	st := p.Hub().Snapshot()
	if st.FeedDropped != 8 {
		t.Errorf("dropped %d events, want 8 (10 sent, buffer 2)", st.FeedDropped)
	}
	if st.EventsSeen != 10 {
		t.Errorf("hub must observe all 10 events regardless, saw %d", st.EventsSeen)
	}
}

// /metrics output is deterministic for a fixed state: two renders are
// byte-identical (prerequisite for diffable scrapes in CI).
func TestMetricsRenderDeterministic(t *testing.T) {
	p := planeWithTraffic()
	render := func() []byte {
		var buf bytes.Buffer
		if err := buildMetrics(p.Hub().Snapshot(), nil, p.Driver()).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("two renders of the same state differ")
	}
}
