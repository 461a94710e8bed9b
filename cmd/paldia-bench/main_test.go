package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A re-baseline records the rows it added or re-measured with their new
// values and the rows it dropped; rows it left alone stay out.
func TestHistoryRecordListsChangedRows(t *testing.T) {
	prev := []benchResult{
		{Name: "a", NsPerOp: 10, Gated: true},
		{Name: "b", NsPerOp: 20, BytesPerOp: 8, AllocsPerOp: 1, Gated: true},
		{Name: "gone", NsPerOp: 30},
	}
	next := []benchResult{
		{Name: "a", NsPerOp: 10, Gated: true},
		{Name: "b", NsPerOp: 5, Gated: true},
		{Name: "new", NsPerOp: 40},
	}
	h := historyRecord("abc", 2, prev, next)
	var changed []string
	for _, r := range h.Changed {
		changed = append(changed, r.Name)
	}
	if got := strings.Join(changed, ","); got != "b,new" {
		t.Errorf("changed rows %q, want b,new", got)
	}
	if h.Changed[0].NsPerOp != 5 || h.Changed[0].BytesPerOp != 0 {
		t.Errorf("changed row carries %+v, want the new values", h.Changed[0])
	}
	if len(h.Removed) != 1 || h.Removed[0] != "gone" {
		t.Errorf("removed %v, want [gone]", h.Removed)
	}
	if h.Commit != "abc" || h.GOMAXPROCS != 2 || h.Go == "" {
		t.Errorf("record header %+v", h)
	}
}

// The history sits next to the baseline and grows by one JSON line per
// re-baseline.
func TestAppendHistoryAppendsLines(t *testing.T) {
	dir := t.TempDir()
	path := historyPath(filepath.Join(dir, "BENCH_sched.json"))
	if filepath.Base(path) != "BENCH_sched.history.jsonl" {
		t.Fatalf("history path %s", path)
	}
	for i, c := range []string{"one", "two"} {
		if err := appendHistory(path, history{Commit: c, GOMAXPROCS: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d history lines, want 2:\n%s", len(lines), raw)
	}
	var last history
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil || last.Commit != "two" {
		t.Fatalf("last line %q (%v)", lines[1], err)
	}
}

// The committed history parses, and its latest record matches the
// committed baseline's rows.
func TestCommittedHistoryMatchesBaseline(t *testing.T) {
	root := filepath.Join("..", "..")
	raw, err := os.ReadFile(historyPath(filepath.Join(root, "BENCH_sched.json")))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var last history
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("history line %q: %v", lines[len(lines)-1], err)
	}
	base := map[string]benchResult{}
	for _, r := range readBaseline(filepath.Join(root, "BENCH_sched.json")) {
		base[r.Name] = r
	}
	for _, r := range last.Changed {
		if b, ok := base[r.Name]; !ok || b.NsPerOp != r.NsPerOp || b.BytesPerOp != r.BytesPerOp {
			t.Errorf("history row %+v does not match the baseline's %+v", r, b)
		}
	}
}
