package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the CLI golden files under testdata/")

// runCLI runs paldia-sim in-process with args, naming every file argument
// written "@name" as dir/name, and returns its stdout; a non-zero exit fails
// the test with the captured stderr.
func runCLI(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	argv := make([]string, len(args))
	for i, a := range args {
		if name, ok := strings.CutPrefix(a, "@"); ok {
			a = filepath.Join(dir, name)
		}
		argv[i] = a
	}
	var stdout, stderr bytes.Buffer
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("paldia-sim %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.Bytes()
}

// goldenRow is one CLI invocation whose stdout and every file it writes are
// pinned byte for byte under testdata/<name>/. Each entry of variants is an
// alternative argument list that must reproduce the same golden.
type goldenRow struct {
	name     string
	variants [][]string
}

// base keeps every row small: one simulated minute at a low peak.
var base = []string{"-duration", "1m", "-peak", "40"}

func args(extra ...string) []string { return append(append([]string{}, base...), extra...) }

var goldenRows = []goldenRow{
	{"scheme-all-timeline", [][]string{
		args("-scheme", "all", "-timeline", "-j", "1"),
		args("-scheme", "all", "-timeline", "-j", "4"),
	}},
	{"paldia-telemetry", [][]string{
		args("-scheme", "paldia", "-csv", "@run.csv", "-trace-out", "@trace.json",
			"-spans-out", "@spans.jsonl", "-events-out", "@events.jsonl", "-timeline-svg", "@timeline.svg"),
	}},
	{"stream-telemetry-check", [][]string{
		args("-stream", "-spans-out", "@spans.jsonl", "-events-out", "@events.jsonl",
			"-series-out", "@series.csv", "-check"),
	}},
	{"stream-tenants", [][]string{
		args("-stream", "-tenants", "3", "-j", "2", "-spans-out", "@spans.jsonl",
			"-events-out", "@events.jsonl", "-series-out", "@series.csv"),
	}},
	{"clone-spot", [][]string{
		args("-clone-k", "2", "-spot-discount", "0.7", "-spot-fraction", "1", "-revoke-every", "20s"),
	}},
	{"stream-hedge", [][]string{
		args("-stream", "-hedge-pct", "95"),
	}},
	{"twitter-seasonal", [][]string{
		args("-trace", "twitter", "-forecaster", "seasonal"),
	}},
	{"stream-live", [][]string{
		args("-stream"),
		args("-stream", "-serve", "127.0.0.1:0", "-progress", "1s"),
	}},
}

// TestCLIDeterministicGoldens pins paldia-sim's observable output for one
// run per execution mode and feature family: stdout verbatim in stdout.txt,
// and every file the run writes by SHA-256 in files.sha256 (the exports run
// to megabytes). Alternative argument lists of a row (worker counts, the live
// plane) must not change a byte. Regenerate with
// `go test ./cmd/paldia-sim -run Goldens -update`.
func TestCLIDeterministicGoldens(t *testing.T) {
	for _, row := range goldenRows {
		t.Run(row.name, func(t *testing.T) {
			golden := filepath.Join("testdata", row.name)
			for vi, argv := range row.variants {
				dir := t.TempDir()
				stdout := runCLI(t, dir, argv...)
				sums := fileDigests(t, dir)
				if *update && vi == 0 {
					writeGolden(t, golden, stdout, sums)
				}
				cmdline := strings.Join(argv, " ")
				if want := readGolden(t, golden, "stdout.txt"); !bytes.Equal(want, stdout) {
					t.Errorf("%s: stdout differs from golden:\n%s", cmdline, stdout)
				}
				if want := readGolden(t, golden, "files.sha256"); !bytes.Equal(want, sums) {
					t.Errorf("%s: written files differ from golden:\n%s\nwant\n%s", cmdline, sums, want)
				}
			}
		})
	}
}

// fileDigests lists every file in dir as "<sha256>  <name>" lines, sorted by
// name (the format sha256sum prints and checks).
func fileDigests(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%x  %s\n", sha256.Sum256(b), e.Name())
	}
	return out.Bytes()
}

func writeGolden(t *testing.T, dir string, stdout, sums []byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"stdout.txt": stdout, "files.sha256": sums} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func readGolden(t *testing.T, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
