package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The inputs under testdata are small paldia-sim exports — a failure-study
// run's spans, series and records (`-seed 3 -duration 30s -peak 30
// -fail-every 3s -fail-for 20s -sample 5s`) and a clone-2 run's spans
// (`-seed 5 -duration 20s -peak 15 -clone-k 2`) — and each .golden file is
// the stdout paldia-analyze printed for them. Together they pin the span,
// series and record schemas the analyses read.

// TestAnalyzeStdoutGoldens compares each analysis's stdout byte for byte.
func TestAnalyzeStdoutGoldens(t *testing.T) {
	for _, row := range []struct {
		golden string
		args   []string
	}{
		{"spans", []string{"-spans", "spans.jsonl"}},
		{"spans-clone", []string{"-spans", "spans-clone.jsonl"}},
		{"series", []string{"-series", "series.csv"}},
		{"records", []string{"records.csv"}},
		{"all", []string{"-spans", "spans.jsonl", "-series", "series.csv", "records.csv"}},
	} {
		t.Run(row.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := make([]string, len(row.args))
			for i, a := range row.args {
				args[i] = a
				if strings.Contains(a, ".") {
					args[i] = filepath.Join("testdata", a)
				}
			}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("paldia-analyze %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", row.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, stdout.Bytes()) {
				t.Errorf("stdout differs from %s.golden:\n%s", row.golden, stdout.String())
			}
		})
	}
}

// The SVG outputs land where asked, as SVG, and are reported on stderr.
func TestAnalyzeWritesSVGs(t *testing.T) {
	dir := t.TempDir()
	cdf, timeline := filepath.Join(dir, "cdf.svg"), filepath.Join(dir, "timeline.svg")
	var stdout, stderr bytes.Buffer
	args := []string{"-svg", cdf, "-series", filepath.Join("testdata", "series.csv"),
		"-timeline-svg", timeline, filepath.Join("testdata", "records.csv")}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	for _, path := range []string{cdf, timeline} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, []byte("<svg")) {
			t.Errorf("%s is not an SVG: %.60q", path, b)
		}
		if !strings.Contains(stderr.String(), "wrote "+path) {
			t.Errorf("stderr does not report %s:\n%s", path, stderr.String())
		}
	}
}

// TestAnalyzeExitCodes checks the error paths: missing or corrupt inputs and
// no input exit 1 with a message on stderr; a bad flag exits 2.
func TestAnalyzeExitCodes(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.jsonl")
	if err := os.WriteFile(corrupt, []byte("{\"req\":\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing")
	for _, c := range []struct {
		name    string
		args    []string
		code    int
		message string
	}{
		{"missing-spans", []string{"-spans", missing}, 1, "no such file"},
		{"missing-series", []string{"-series", missing}, 1, "no such file"},
		{"missing-records", []string{missing}, 1, "no such file"},
		{"corrupt-spans", []string{"-spans", corrupt}, 1, "span 1"},
		{"no-input", nil, 1, "usage: paldia-analyze"},
		{"bad-flag", []string{"-slo", "soon"}, 2, `invalid value "soon"`},
		{"unknown-flag", []string{"-nope"}, 2, "flag provided but not defined"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d\n%s", code, c.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.message) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), c.message)
			}
			if stdout.Len() != 0 {
				t.Errorf("error path wrote stdout: %q", stdout.String())
			}
		})
	}
}
