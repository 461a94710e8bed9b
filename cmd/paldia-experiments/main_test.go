package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the stdout goldens under testdata/")

// runCLI runs paldia-experiments in-process and returns its stdout and
// stderr; a non-zero exit fails the test.
func runCLI(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("paldia-experiments %s: exit %d\n%s", strings.Join(args, " "), code, errOut.String())
	}
	return out.String(), errOut.String()
}

// doneLine matches the per-experiment timing line, which must stay on
// stderr so stdout is reproducible.
var doneLine = regexp.MustCompile(`(?m)^\[[a-z0-9-]+ done in [^\]]+\]$`)

// TestExperimentsStdoutGoldens pins the static tables (Table II and the
// CPU-vs-GPU cost claim) byte for byte, as aligned text and as markdown,
// and every experiment's table at one repetition and a tenth of the paper's
// scale. Regenerate with `go test ./cmd/paldia-experiments -update` (only
// for an intended output change).
func TestExperimentsStdoutGoldens(t *testing.T) {
	for _, row := range []struct {
		name string
		args []string
		runs int // experiments run, one timing line each
	}{
		{"table2-cpugpu", []string{"-run", "table2,cpugpu"}, 2},
		{"table2-cpugpu-md", []string{"-run", "table2,cpugpu", "-md"}, 2},
		{"all-reps1-scale0.1", []string{"-reps", "1", "-scale", "0.1"}, 28},
	} {
		t.Run(row.name, func(t *testing.T) {
			stdout, stderr := runCLI(t, row.args...)
			if got := len(doneLine.FindAllString(stderr, -1)); got != row.runs {
				t.Errorf("stderr has %d timing lines, want %d:\n%s", got, row.runs, stderr)
			}
			golden := filepath.Join("testdata", row.name+".txt")
			if *update {
				if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if string(want) != stdout {
				t.Errorf("stdout differs from %s:\n%s", golden, stdout)
			}
		})
	}
}

// TestExperimentsWorkerCountInvariant checks that a simulated experiment
// prints the same bytes serially and over a worker pool, and that no timing
// line leaks into stdout.
func TestExperimentsWorkerCountInvariant(t *testing.T) {
	base := []string{"-run", "fig5", "-reps", "1", "-scale", "0.02"}
	serial, _ := runCLI(t, append(base, "-j", "1")...)
	pooled, _ := runCLI(t, append(base, "-j", "4")...)
	if serial != pooled {
		t.Fatalf("stdout differs between -j 1 and -j 4:\n--- -j 1\n%s\n--- -j 4\n%s", serial, pooled)
	}
	if doneLine.MatchString(serial) || !strings.HasPrefix(serial, "## FIG5 ") {
		t.Fatalf("stdout is not the bare fig5 table:\n%s", serial)
	}
}

// TestExperimentsFileOutputs checks that -csv and -svg write each table's CSV
// and figures into the named directories and report them on stderr.
func TestExperimentsFileOutputs(t *testing.T) {
	dir := t.TempDir()
	csvDir, svgDir := filepath.Join(dir, "csv"), filepath.Join(dir, "svg")
	_, stderr := runCLI(t, "-run", "fig9", "-reps", "1", "-scale", "0.02", "-j", "1",
		"-csv", csvDir, "-svg", svgDir)
	for _, f := range []struct{ path, prefix string }{
		{filepath.Join(csvDir, "fig9.csv"), ""},
		{filepath.Join(svgDir, "fig9-llm-slo-compliance.svg"), "<svg"},
	} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 || !strings.HasPrefix(string(data), f.prefix) {
			t.Errorf("%s: unexpected content %.40q", f.path, data)
		}
		if !strings.Contains(stderr, "wrote "+f.path) {
			t.Errorf("stderr does not report %s:\n%s", f.path, stderr)
		}
	}
}

// TestExperimentsFlagConflicts checks the error paths: each exits non-zero
// with a message on stderr and prints nothing to stdout.
func TestExperimentsFlagConflicts(t *testing.T) {
	for _, c := range []struct {
		name    string
		args    []string
		code    int
		message string
	}{
		{"unknown experiment", []string{"-run", "fig3,fig99"}, 1, `unknown experiment "fig99" (known: `},
		{"unknown forecaster", []string{"-forecaster", "tea-leaves"}, 1, `unknown forecaster "tea-leaves"`},
		{"bad flag", []string{"-reps", "many"}, 2, `invalid value "many" for flag -reps`},
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
