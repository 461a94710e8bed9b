package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
// message on stderr and prints nothing to stdout.
func TestPlanExitCodes(t *testing.T) {
	for _, c := range []struct {
		name    string
		args    []string
		code    int
		message string
	}{
		{"unknown-model", []string{"-model", "NoSuchNet"}, 1, `unknown model "NoSuchNet"`},
		{"bad-flag", []string{"-rate", "fast"}, 2, `invalid value "fast"`},
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
