package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Metric is one Prometheus sample: a family name, sorted labels, and a
// value. The exposition writer and the parser round-trip through this
// type, which is what the round-trip test pins.
type Metric struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label is one name="value" pair.
type Label struct{ Name, Value string }

// promFamily annotates one metric family for HELP/TYPE comments.
type promFamily struct {
	name, help, typ string
	samples         []Metric
}

type promSet struct {
	families []*promFamily
	byName   map[string]*promFamily
}

func newPromSet() *promSet {
	return &promSet{byName: make(map[string]*promFamily)}
}

func (p *promSet) family(name, typ, help string) *promFamily {
	if f, ok := p.byName[name]; ok {
		return f
	}
	f := &promFamily{name: name, help: help, typ: typ}
	p.byName[name] = f
	p.families = append(p.families, f)
	return f
}

func (p *promSet) add(name, typ, help string, value float64, labels ...Label) {
	f := p.family(name, typ, help)
	f.samples = append(f.samples, Metric{Name: name, Labels: labels, Value: value})
}

// WriteText renders the set in the Prometheus text exposition format
// (version 0.0.4), families in registration order, samples in insertion
// order — deterministic for a deterministic input.
func (p *promSet) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range p.families {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		if f.typ != "" {
			fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		}
		for _, s := range f.samples {
			bw.WriteString(s.String())
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// String renders the sample as one exposition line.
func (m Metric) String() string {
	var b strings.Builder
	b.WriteString(m.Name)
	if len(m.Labels) > 0 {
		b.WriteByte('{')
		for i, l := range m.Labels {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%q", l.Name, l.Value)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatPromValue(m.Value))
	return b.String()
}

// formatPromValue renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatPromValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParsePromText parses Prometheus text exposition into samples, ignoring
// comments and blank lines. It understands exactly the subset the writer
// emits (no timestamps, no escapes beyond %q), which is all the round-trip
// test and the live-smoke scrape need.
func ParsePromText(r io.Reader) ([]Metric, error) {
	var out []Metric
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: /metrics line %d: %w", lineNo, err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parsePromLine(line string) (Metric, error) {
	var m Metric
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		m.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return m, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parsePromLabels(rest[i+1 : end])
		if err != nil {
			return m, err
		}
		m.Labels = labels
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) != 2 {
			return m, fmt.Errorf("malformed sample %q", line)
		}
		m.Name = fields[0]
		rest = strings.TrimSpace(fields[1])
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return m, fmt.Errorf("bad value in %q: %w", line, err)
	}
	m.Value = v
	return m, nil
}

func parsePromLabels(s string) ([]Label, error) {
	var out []Label
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed label in %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("unquoted label value after %q", name)
		}
		// Find the closing quote, honouring \" escapes.
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated label value after %q", name)
		}
		val, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, fmt.Errorf("bad label value after %q: %w", name, err)
		}
		out = append(out, Label{Name: name, Value: val})
		s = strings.TrimPrefix(strings.TrimSpace(s[end+1:]), ",")
		s = strings.TrimSpace(s)
	}
	return out, nil
}

// buildMetrics assembles the full exposition from the hub state, the run's
// Online aggregator (nil when the run uses the exact Collector — the
// latency summary and goodput families are simply absent then) and the
// driver (nil when unpaced).
func buildMetrics(st State, online *metrics.Online, driver *Driver) *promSet {
	p := newPromSet()

	p.add("paldia_virtual_time_seconds", "gauge",
		"Virtual time of the replayed simulation.", st.VirtualTime.Seconds())
	if driver != nil {
		p.add("paldia_wall_elapsed_seconds", "gauge",
			"Wall-clock time since the replay started.", driver.WallElapsed().Seconds())
		p.add("paldia_replay_speedup", "gauge",
			"Configured virtual-per-wall replay ratio (0 = unpaced).", driver.Speedup())
	}
	p.add("paldia_replay_done", "gauge",
		"1 once the replay has finished.", boolGauge(st.Done))
	p.add("paldia_bus_events_total", "counter",
		"Telemetry events observed on the bus.", float64(st.EventsSeen))
	p.add("paldia_inflight_requests", "gauge",
		"Requests arrived whose span has not finished.", float64(st.InFlight))

	for _, t := range st.Tenants {
		lbl := Label{"tenant", strconv.Itoa(t.Tenant)}
		p.add("paldia_requests_arrived_total", "counter",
			"Requests that reached the gateway.", float64(t.Arrived), lbl)
		p.add("paldia_requests_completed_total", "counter",
			"Requests served to completion.", float64(t.Completed), lbl)
		p.add("paldia_requests_failed_total", "counter",
			"Requests lost to node failures or the final flush.", float64(t.Failed), lbl)
		p.add("paldia_slo_violations_total", "counter",
			"Requests that missed the SLO or failed.", float64(t.Violations), lbl)
		p.add("paldia_slo_compliance", "gauge",
			"Fraction of finished requests served within the SLO.", t.Compliance, lbl)
	}

	if online != nil {
		s := online.Snapshot()
		for _, q := range []struct {
			q string
			v time.Duration
		}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
			p.add("paldia_latency_seconds", "summary",
				"End-to-end latency quantiles from the online sketch.",
				q.v.Seconds(), Label{"quantile", q.q})
		}
		p.add("paldia_latency_seconds_sum", "", "",
			s.Mean.Seconds()*float64(s.Count))
		p.add("paldia_latency_seconds_count", "", "", float64(s.Count))
		p.add("paldia_latency_max_seconds", "gauge",
			"Maximum observed end-to-end latency.", s.Max.Seconds())

		// Goodput over the trailing minute of virtual time.
		from := st.VirtualTime - time.Minute
		if from < 0 {
			from = 0
		}
		if to := st.VirtualTime; to > from {
			p.add("paldia_goodput_rps", "gauge",
				"Requests served within SLO per second, trailing 1m of virtual time.",
				online.GoodputRPS(from, to))
			p.add("paldia_arrival_rps", "gauge",
				"Arrival rate per second, trailing 1m of virtual time.",
				online.ArrivalRPS(from, to))
		}
	}

	for _, w := range sortedKeys(st.Burn) {
		p.add("paldia_slo_burn_rate", "gauge",
			"Error-budget burn rate per look-back window (1 = budget pace).",
			st.Burn[w], Label{"window", w})
	}
	p.add("paldia_slo_burn_firing", "gauge",
		"1 while the multi-window burn-rate alert is firing.", boolGauge(st.BurnFiring))
	p.add("paldia_slo_burn_alerts_total", "counter",
		"Burn-rate alert transitions (firing and resolving).", float64(len(st.Alerts)))

	// Operational counters from the event bus.
	p.add("paldia_cold_starts_total", "counter",
		"Synchronous (request-blocking) container boots.", float64(st.ColdBoots))
	p.add("paldia_container_prewarms_total", "counter",
		"Containers booted in the background.", float64(st.Prewarms))
	p.add("paldia_container_reaps_total", "counter",
		"Idle containers reaped past keep-alive.", float64(st.Reaps))
	p.add("paldia_hw_switches_total", "counter",
		"Primary serving hardware reconfigurations.", float64(st.HWSwitches))
	p.add("paldia_nodes_acquired_total", "counter",
		"Worker VMs acquired.", float64(st.NodesAcquired))
	p.add("paldia_nodes_released_total", "counter",
		"Worker VMs released.", float64(st.NodesReleased))
	p.add("paldia_node_failures_total", "counter",
		"Injected node failures observed.", float64(st.NodesFailed))
	p.add("paldia_scale_outs_total", "counter",
		"Replica nodes brought into service.", float64(st.ScaleOuts))
	p.add("paldia_scale_ins_total", "counter",
		"Replica nodes retired.", float64(st.ScaleIns))

	// The latest sampled gauges (cost ledger, pool occupancy, rates, ...)
	// pass through under one family with a series label, so whatever the
	// sampler observes is scrapable without a schema change here.
	for _, name := range sortedKeys(st.Gauges) {
		p.add("paldia_sampled_gauge", "gauge",
			"Latest virtual-time sample of each runtime gauge series.",
			st.Gauges[name], Label{"series", name})
	}
	// Pool occupancy and the cost ledger get first-class names too (these
	// are the series the paper's operator story leans on).
	if v, ok := st.Gauges["cost_usd"]; ok {
		p.add("paldia_cost_usd", "gauge",
			"Accrued cluster cost in dollars (latest sample).", v)
	}
	if v, ok := st.Gauges["containers_idle"]; ok {
		p.add("paldia_pool_containers", "gauge",
			"Container pool occupancy by state (latest sample).",
			v, Label{"state", "idle"})
	}
	if v, ok := st.Gauges["containers_busy"]; ok {
		p.add("paldia_pool_containers", "gauge", "",
			v, Label{"state", "busy"})
	}
	if v, ok := st.Gauges["nodes"]; ok {
		p.add("paldia_active_nodes", "gauge",
			"Nodes currently held (latest sample).", v)
	}

	p.add("paldia_sse_subscribers", "gauge",
		"Connected /events subscribers.", float64(st.Subscribers))
	p.add("paldia_sse_dropped_total", "counter",
		"Feed events dropped across slow subscribers.", float64(st.FeedDropped))
	return p
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
