package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode pins BENCHMARK.json to the benchmark's own tables.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// TestQuickRun runs every workload on tiny inputs through one round, the
// traced pass and the ladder: every check must pass and every metric named
// in BENCHMARK.json must come out with its unit.
func TestQuickRun(t *testing.T) {
	s := readSpec(t)
	rc := runConfig{sz: quickSizes, seed: 1, hiP: min(2, runtime.NumCPU()), log: io.Discard}
	res := rc.all(1, 0)
	if res.Checks.Failed > 0 || res.Checks.Attempted == 0 {
		t.Fatalf("checks: %+v", res.Checks)
	}
	for _, w := range s.Workloads {
		wr := res.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("workload %s not reported", w.Name)
		}
		for _, m := range s.EndToEnd {
			got, ok := wr.EndToEnd[m.Name]
			if !ok || got.Unit != m.Unit || got.N == 0 || math.IsNaN(got.Median) {
				t.Errorf("%s: end-to-end %s missing or malformed: %+v", w.Name, m.Name, got)
			}
		}
		for _, m := range s.PerLayer {
			got, ok := wr.PerLayer[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Median) {
				t.Errorf("%s: per-layer %s missing or malformed: %+v", w.Name, m.Name, got)
			}
		}
	}
}

// TestWorkloadLine checks the single-workload interface: the last line of
// standard output is one JSON object with exactly the result keys, carrying
// every end-to-end (trace 0) or per-layer (trace 1) metric.
func TestWorkloadLine(t *testing.T) {
	for _, traced := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		code := run([]string{"--workload", "azure-stream", "--seed", "2", "--seconds", "1", "--trace", traced, "-quick"}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", traced, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", traced, err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Fatalf("trace %s: keys %v", traced, line)
		}
		var ms map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced == "1" {
			defs = perLayer
		}
		if len(ms) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", traced, len(ms), len(defs))
		}
		for _, d := range defs {
			if m, ok := ms[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or mislabelled: %+v", traced, d.name, m)
			}
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(xs, n=4) ("exclusive").
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	res := func(better string, xs ...float64) metricResult {
		return metricResult{Better: better, Bound: 0.1, stat: summarize(xs)}
	}
	for _, c := range []struct {
		name           string
		parent, change metricResult
		want           string
	}{
		{"clear gain", res("higher", 100, 101, 99, 100, 102, 98, 100, 101, 99, 100),
			res("higher", 120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "better"},
		{"regression", res("lower", 100, 101, 99, 100, 102, 98, 100, 101, 99, 100),
			res("lower", 120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "worse"},
		{"within bound", res("higher", 100, 101, 99, 100, 102, 98, 100, 101, 99, 100),
			res("higher", 98, 99, 97, 98, 100, 96, 98, 99, 97, 98), "same"},
		{"too noisy to tell", res("higher", 60, 140, 80, 120, 100, 70, 130, 90, 110, 100),
			res("higher", 95, 97, 99, 101, 103, 98, 96, 100, 102, 94), "unresolved"},
	} {
		if got, _, _ := verdict(c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCPUGroup(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"slices.pdqsortOrdered[go.shape.int64]", "repro/internal/trace.realizeBucket"}, "trace"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/core.(*runner).dispatchJob"}, "gc_alloc"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
		{[]string{"time.Now", "main.(*timedStream).Next", "repro/internal/core.(*runner).scheduleArrivals.func1"}, "bench"},
		{[]string{"repro/internal/hardware.Catalog"}, "other"},
	} {
		if got := cpuGroup(c.frames); got != c.want {
			t.Errorf("cpuGroup(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
