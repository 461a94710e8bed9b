package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

var update = flag.Bool("update", false, "rewrite the stdout goldens under testdata/")

// TestPlanStdoutGoldens pins paldia-plan's report — the capable pool, each
// node's T_max and best y, and the choose_best_HW pick — byte for byte.
// Regenerate with `go test ./cmd/paldia-plan -update` (only for an intended
// output change).
func TestPlanStdoutGoldens(t *testing.T) {
	rows := []struct {
		name string
		args []string
	}{
		{"resnet50-450rps", []string{"-model", "ResNet 50", "-rate", "450"}},
		{"bert-8rps-150ms", []string{"-model", "BERT", "-rate", "8", "-slo", "150ms"}},
		// The policy picks g3s.xlarge here; costing the CPU nodes without
		// their M/D/1 tail wait would pick c6i.2xlarge.
		{"resnet50-150rps", []string{"-model", "ResNet 50", "-rate", "150"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(row.args, &stdout, &stderr); code != 0 {
				t.Fatalf("paldia-plan %s: exit %d\n%s", strings.Join(row.args, " "), code, stderr.String())
			}
			golden := filepath.Join("testdata", row.name+".txt")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, stdout.Bytes()) {
				t.Errorf("stdout differs from %s:\n%s", golden, stdout.String())
			}
		})
	}
}

// TestPlanExitCodes checks the error paths: each exits non-zero with a
// message on stderr and prints nothing to stdout. A rate or SLO out of range
// exits 2, as an unparsable value does, and so does a pair whose Eq. (1) N
// is too large to cost; those return at once.
func TestPlanExitCodes(t *testing.T) {
	for _, c := range []struct {
		name    string
		args    []string
		code    int
		message string
	}{
		{"unknown-model", []string{"-model", "NoSuchNet"}, 1, `unknown model "NoSuchNet"`},
		{"bad-flag", []string{"-rate", "fast"}, 2, `invalid value "fast"`},
		{"zero-slo", []string{"-slo", "0"}, 2, "-slo 0s"},
		{"negative-slo", []string{"-slo", "-150ms"}, 2, "-slo -150ms"},
		{"negative-rate", []string{"-rate", "-5"}, 2, "-rate -5"},
		{"nan-rate", []string{"-rate", "NaN"}, 2, "-rate NaN"},
		{"inf-rate", []string{"-rate", "+Inf"}, 2, "-rate +Inf"},
		{"minus-inf-rate", []string{"-rate", "-Inf"}, 2, "-rate -Inf"},
		{"rate-1e12", []string{"-rate", "1e12"}, 2, "-rate 1e+12 with -slo 200ms"},
		{"slo-1000h", []string{"-slo", "1000h"}, 2, "-rate 450 with -slo 1000h0m0s"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit %d, want %d", code, c.code)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want empty", stdout.String())
			}
			if !strings.Contains(stderr.String(), c.message) {
				t.Errorf("stderr = %q, want it to contain %q", stderr.String(), c.message)
			}
		})
	}
}

// TestPlanPicksWhatThePolicyPicks runs paldia-plan over every catalog model,
// two SLOs and twelve rates from 1 to 1000 rps, and checks each printed
// choose_best_HW pick against Paldia's DesiredHardware on an idle State at
// the same rate: the planner must print the runtime's decision, not a copy
// of it.
func TestPlanPicksWhatThePolicyPicks(t *testing.T) {
	policy := core.NewPaldia().Policy
	rates := []float64{1, 2, 5, 8, 15, 30, 60, 100, 150, 250, 450, 1000}
	points := 0
	for _, m := range model.Catalog() {
		for _, slo := range []time.Duration{150 * time.Millisecond, 200 * time.Millisecond} {
			for _, rate := range rates {
				args := []string{"-model", m.Name, "-rate", fmt.Sprint(rate), "-slo", slo.String()}
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("paldia-plan %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
				}
				_, line, ok := strings.Cut(stdout.String(), "choose_best_HW: ")
				if !ok {
					t.Fatalf("paldia-plan %s printed no pick:\n%s", strings.Join(args, " "), stdout.String())
				}
				printed, _, _ := strings.Cut(line, " ")
				want := policy.DesiredHardware(&core.State{Model: m, SLO: slo, PredictedRPS: rate})
				if printed != want.Name {
					t.Errorf("%s at %g rps, SLO %v: paldia-plan picks %s, DesiredHardware %s",
						m.Name, rate, slo, printed, want.Name)
				}
				points++
			}
		}
	}
	if points != 384 {
		t.Fatalf("swept %d points, want 384", points)
	}
}
