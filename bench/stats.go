package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// stat summarizes one metric's samples.
type stat struct {
	Median  float64   `json:"median"`
	P25     float64   `json:"p25"`
	P75     float64   `json:"p75"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64) stat {
	s := stat{N: len(xs), Samples: xs}
	if len(xs) == 0 {
		return s
	}
	s.Median = median(xs)
	s.P25, s.P75 = quartiles(xs)
	return s
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// quartiles returns the first and third quartiles by the "exclusive" method
// of Python's statistics.quantiles(xs, n=4), the method the benchmark's
// acceptance rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	ld := len(ys)
	if ld == 1 {
		return ys[0], ys[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (ys[j-1]*float64(4-delta) + ys[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// --- result files ------------------------------------------------------------------

// resultFile is the machine-readable output of a run (-out) and the input
// of -compare.
type resultFile struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Checks    checkReport                `json:"checks"`
}

type meta struct {
	GoVersion   string    `json:"go_version"`
	NProc       int       `json:"nproc"`
	GOMAXPROCS  []int     `json:"gomaxprocs"`
	Commit      string    `json:"commit"`
	Seed        uint64    `json:"seed"`
	Mode        string    `json:"mode"`
	RefKernelMs float64   `json:"ref_kernel_ms"`
	Kernel      []float64 `json:"kernel_ms"`
}

type workloadResult struct {
	EndToEnd map[string]metricResult `json:"end_to_end,omitempty"`
	PerLayer map[string]metricResult `json:"per_layer,omitempty"`
}

type metricResult struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
	stat
}

type checkReport struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// --- -compare ------------------------------------------------------------------------

// verdict applies the paired-run rule to one workload x metric. A gain
// needs at least nine tenths of the index-paired samples to favour the
// change (ties count for neither) and a median gap wider than the parent's
// interquartile range. A change whose median is worse by more than the
// bound is a regression. When the parent's own spread is wider than the
// bound, no-regression cannot be shown, so the metric is unresolved unless
// every change sample beats every parent sample.
func verdict(parent, change metricResult) (string, int, int) {
	sign := 1.0
	if parent.Better == "lower" {
		sign = -1
	}
	n := min(len(parent.Samples), len(change.Samples))
	wins := 0
	for i := 0; i < n; i++ {
		if d := sign * (change.Samples[i] - parent.Samples[i]); d > 0 {
			wins++
		}
	}
	gap := sign * (change.Median - parent.Median)
	iqr := parent.P75 - parent.P25
	base := math.Abs(parent.Median)
	switch {
	case n > 0 && wins*10 >= 9*n && gap > iqr:
		return "better", wins, n
	case gap < -parent.Bound*base:
		return "worse", wins, n
	case base > 0 && iqr/base > parent.Bound && !allBetter(parent, change, sign):
		return "unresolved", wins, n
	}
	return "same", wins, n
}

func allBetter(parent, change metricResult, sign float64) bool {
	if len(parent.Samples) == 0 || len(change.Samples) == 0 {
		return false
	}
	for _, c := range change.Samples {
		for _, p := range parent.Samples {
			if sign*(c-p) <= 0 {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per workload x end-to-end metric and returns
// the number of regressions.
func compareFiles(w io.Writer, parent, change *resultFile) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [p25, p75]\tchange median [p25, p75]\tdelta\tpair wins\tverdict")
	worse := 0
	for _, def := range endToEnd {
		for _, wl := range workloads {
			pw, cw := parent.Workloads[wl.name], change.Workloads[wl.name]
			if pw == nil || cw == nil {
				continue
			}
			p, okP := pw.EndToEnd[def.name]
			c, okC := cw.EndToEnd[def.name]
			if !okP || !okC {
				continue
			}
			v, wins, n := verdict(p, c)
			if v == "worse" {
				worse++
			}
			delta := math.NaN()
			if p.Median != 0 {
				delta = (c.Median/p.Median - 1) * 100
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%d/%d\t%s\n",
				wl.name, def.name, def.unit, p.Median, p.P25, p.P75, c.Median, c.P25, c.P75,
				delta, wins, n, v)
		}
	}
	tw.Flush()
	return worse
}
