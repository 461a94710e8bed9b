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
