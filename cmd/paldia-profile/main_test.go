package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfileStdoutGolden pins the full profiling table byte for byte
// (testdata/full.golden is paldia-profile's stdout with no flags).
func TestProfileStdoutGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "full.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, stdout.Bytes()) {
		t.Errorf("stdout differs from full.golden:\n%s", stdout.String())
	}
}

// TestProfileExitCodes checks the error paths: each exits non-zero with a
// message on stderr and prints nothing to stdout.
func TestProfileExitCodes(t *testing.T) {
	for _, c := range []struct {
		name    string
		args    []string
		code    int
		message string
	}{
		{"unknown-model", []string{"-model", "NoSuchNet"}, 1, `unknown model "NoSuchNet"`},
		{"unknown-hw", []string{"-hw", "TPUv9"}, 1, `unknown hardware "TPUv9"`},
		{"bad-flag", []string{"-nope"}, 2, "flag provided but not defined"},
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
