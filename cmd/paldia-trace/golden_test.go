package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the stdout goldens under testdata/")

// cliEnv marks a re-executed test binary that should behave as paldia-trace.
const cliEnv = "PALDIA_TRACE_AS_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) == "1" {
		os.Args = append([]string{"paldia-trace"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTraceStdoutGoldens pins paldia-trace's report for every generator, so
// the trace-by-name builder keeps each one's rate convention and defaults.
// Regenerate with `go test ./cmd/paldia-trace -update`.
func TestTraceStdoutGoldens(t *testing.T) {
	rows := []struct {
		name string
		args []string
	}{
		{"azure", []string{"-trace", "azure", "-peak", "60"}},
		{"wikipedia", []string{"-trace", "wikipedia", "-peak", "20", "-curve", "10m"}},
		{"twitter", []string{"-trace", "twitter", "-mean", "12", "-duration", "10m"}},
		{"poisson", []string{"-trace", "poisson", "-peak", "30", "-duration", "2m"}},
		{"stable", []string{"-trace", "stable", "-mean", "20", "-duration", "5m"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], row.args...)
			cmd.Env = append(os.Environ(), cliEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("paldia-trace %s: %v\n%s", strings.Join(row.args, " "), err, stderr.String())
			}
			golden := filepath.Join("testdata", row.name+".txt")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
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

// TestTraceRejectsBadInput pins paldia-trace's error exits: an unknown
// generator, a negative, NaN or infinite rate, or a negative duration exit 1
// with the reason on stderr and nothing on stdout.
func TestTraceRejectsBadInput(t *testing.T) {
	rows := []struct {
		args []string
		msg  string
	}{
		{[]string{"-trace", "reddit"}, "unknown trace"},
		{[]string{"-peak", "-5"}, "rate -5 rps must be finite and non-negative"},
		{[]string{"-trace", "poisson", "-peak", "Inf"}, "rate +Inf rps"},
		{[]string{"-duration", "-1m"}, "duration -1m0s must not be negative"},
		{[]string{"-trace", "stable", "-mean", "-3"}, "rate -3 rps"},
	}
	for _, row := range rows {
		cmd := exec.Command(os.Args[0], row.args...)
		cmd.Env = append(os.Environ(), cliEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
			t.Errorf("paldia-trace %s: exit %d (%v), want 1", strings.Join(row.args, " "), code, err)
		}
		if !strings.Contains(stderr.String(), row.msg) {
			t.Errorf("paldia-trace %s: stderr %q does not mention %q", strings.Join(row.args, " "), stderr.String(), row.msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("paldia-trace %s printed to stdout:\n%s", strings.Join(row.args, " "), stdout.String())
		}
	}
}
