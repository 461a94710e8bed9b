package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestFlagConflicts drives every rejected flag combination through run and
// checks the exit status, the message, and that nothing ran: no stdout and no
// file written.
func TestFlagConflicts(t *testing.T) {
	rows := []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"unknown model", []string{"-model", "AlexNet-9000"}, 1, "unknown model"},
		{"unknown scheme", []string{"-scheme", "fifo"}, 1, "unknown scheme"},
		{"unknown trace", []string{"-trace", "reddit"}, 1, "unknown trace"},
		{"unknown forecaster", []string{"-forecaster", "crystal-ball"}, 1, "unknown forecaster"},
		{"clone-k out of range", []string{"-clone-k", "4"}, 1, "-clone-k must be 0, 2 or 3"},
		{"clone-k with hedge-pct", []string{"-clone-k", "2", "-hedge-pct", "95"}, 1, "mutually exclusive"},
		{"revoke without spot", []string{"-revoke-every", "20s"}, 1, "-revoke-every needs spot nodes"},
		{"spot discount of 1 or more", []string{"-spot-discount", "1.5", "-spot-fraction", "1"}, 1, "SpotDiscount must be in [0,1)"},
		{"failures without an outage", []string{"-fail-every", "20s", "-fail-for", "0"}, 1, "FailureEvery without a positive FailureDuration"},
		{"stream with csv", []string{"-stream", "-csv", "@run.csv"}, 1, "-stream keeps no per-request records"},
		{"stream with timeline", []string{"-stream", "-timeline"}, 1, "-stream keeps no per-request records"},
		{"stream with trace-out", []string{"-stream", "-trace-out", "@t.json"}, 1, "-stream keeps no per-request records"},
		{"tenants imply stream", []string{"-tenants", "2", "-csv", "@run.csv"}, 1, "-stream keeps no per-request records"},
		{"stream with file trace", []string{"-stream", "-trace", "file:@arrivals.txt"}, 1, "file: traces"},
		{"zero tenants", []string{"-tenants", "0"}, 1, "-tenants must be at least 1"},
		{"tenants with scheme all", []string{"-tenants", "2", "-scheme", "all"}, 1, "single scheme per grid"},
		{"stream with clairvoyant", []string{"-stream", "-scheme", "oracle"}, 1, "clairvoyant"},
		{"tenants with clairvoyant", []string{"-tenants", "2", "-scheme", "oracle"}, 1, "clairvoyant"},
		{"telemetry with scheme all", []string{"-scheme", "all", "-spans-out", "@s.jsonl"}, 1, "require a single scheme"},
		{"progress with scheme all", []string{"-scheme", "all", "-progress", "1s"}, 1, "attach to a single run"},
		{"csv with scheme all", []string{"-scheme", "all", "-csv", "@run.csv"}, 1, "-csv writes one scheme's records"},
		{"flag parse error", []string{"-shards", "2"}, 2, "flag provided but not defined: -shards"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			argv := []string{"-duration", "5s", "-peak", "5"}
			for _, a := range row.args {
				argv = append(argv, strings.ReplaceAll(a, "@", dir+string(os.PathSeparator)))
			}
			var stdout, stderr bytes.Buffer
			code := run(argv, &stdout, &stderr)
			if code != row.code {
				t.Errorf("exit %d, want %d (stderr: %s)", code, row.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), row.msg) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), row.msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected run printed to stdout:\n%s", stdout.String())
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("rejected run wrote %d files", len(entries))
			}
		})
	}
}

// TestRequestsSizesMaterializedRuns pins that -requests sizes a materialized
// trace the same way it sizes a streamed curve.
func TestRequestsSizesMaterializedRuns(t *testing.T) {
	var mat, streamed, stderr bytes.Buffer
	if code := run([]string{"-trace", "poisson", "-peak", "20", "-requests", "600"}, &mat, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if code := run([]string{"-trace", "poisson", "-peak", "20", "-requests", "600", "-stream"}, &streamed, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	const want = "poisson(rate=20,dur=30s)"
	for name, out := range map[string]string{"materialized": mat.String(), "streamed": streamed.String()} {
		if !strings.Contains(out, want) {
			t.Errorf("%s run is not sized to %s:\n%s", name, want, out)
		}
	}
}

// TestStreamWikipedia pins that the wikipedia trace streams like every other
// generator.
func TestStreamWikipedia(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-stream", "-trace", "wikipedia", "-peak", "2", "-model", "BERT"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "curve wikipedia(") {
		t.Errorf("unexpected output:\n%s", stdout.String())
	}
}
