package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/serving_digests.txt")

const digestFile = "testdata/serving_digests.txt"

// digestCase is one row of the serving digest matrix: a seeded run and the
// event kinds it must exercise (so a row that silently stops covering its
// path — no failure fired, no clone cancelled — fails instead of passing on
// a digest of the easy case).
type digestCase struct {
	name string
	need []telemetry.Kind
	run  func(rec *telemetry.Recorder, chk *invariant.Checker) digestOutput
}

// digestOutput is what one run produced: the Result (or MultiResult) with
// its pointers masked, and each collector's per-request CSV.
type digestOutput struct {
	result string
	csvs   []*bytes.Buffer
}

func singleRun(cfg Config) func(*telemetry.Recorder, *invariant.Checker) digestOutput {
	return func(rec *telemetry.Recorder, chk *invariant.Checker) digestOutput {
		cfg.Telemetry = rec
		cfg.Invariants = chk
		cfg.SampleEvery = time.Second
		res := Run(cfg)
		var csv bytes.Buffer
		if err := res.Collector.WriteCSV(&csv); err != nil {
			panic(err)
		}
		res.Collector = nil
		return digestOutput{result: fmt.Sprintf("%+v", res), csvs: []*bytes.Buffer{&csv}}
	}
}

func digestCases() []digestCase {
	resnet := model.MustByName("ResNet 50")
	bert := model.MustByName("BERT")
	v100 := hardware.MostPerformant(hardware.GPU)
	azure := func(seed uint64, peak float64) *trace.Trace {
		return trace.Azure(sim.NewRNG(seed), peak, 2*time.Minute)
	}
	failures := func(cfg Config) Config {
		cfg.FailureEvery = 40 * time.Second
		cfg.FailureDuration = 10 * time.Second
		return cfg
	}
	paldia := Config{Model: resnet, Trace: azure(42, 250), Scheme: NewPaldia()}
	// VGG 19 at three times its default peak outgrows one node of the
	// selected type, so MaxNodes procures replicas (and retires them again),
	// some of them while Algorithm 1 is switching the primary's type.
	vgg := model.MustByName("VGG 19")
	adaptive := Config{Model: vgg, Trace: azure(5, 3*vgg.DefaultPeakRPS()), Scheme: NewPaldia(), MaxNodes: 3}
	clone := func(s Scheme, seed uint64) Config {
		return Config{Model: resnet, Trace: azure(seed, 200), Scheme: s}
	}
	return []digestCase{
		{"paldia", nil, singleRun(paldia)},
		{"paldia-failures", []telemetry.Kind{telemetry.NodeFailed}, singleRun(failures(paldia))},
		{"paldia-revoke", []telemetry.Kind{telemetry.NodeRevoked}, singleRun(spotCfg(paldia))},
		{"paldia-maxnodes3", []telemetry.Kind{telemetry.ScaleOut, telemetry.ScaleIn}, singleRun(adaptive)},
		{"paldia-maxnodes3-failures", []telemetry.Kind{telemetry.ScaleOut, telemetry.NodeFailed},
			singleRun(failures(adaptive))},
		{"pinned-v100-scaleout", []telemetry.Kind{telemetry.ScaleOut}, singleRun(Config{
			Model: bert, Trace: trace.Poisson(sim.NewRNG(8), 130, 2*time.Minute),
			Scheme: NewPaldiaPinned(v100), MaxNodes: 3,
		})},
		{"clone-2", []telemetry.Kind{telemetry.Cloned, telemetry.CloneCancelled},
			singleRun(clone(NewPaldiaCloneK(2, false), 1))},
		{"clone-3", []telemetry.Kind{telemetry.Cloned, telemetry.CloneCancelled},
			singleRun(clone(NewPaldiaCloneK(3, false), 2))},
		{"clone-2-sync", []telemetry.Kind{telemetry.Cloned},
			singleRun(clone(NewPaldiaCloneK(2, true), 3))},
		{"hedge-95", []telemetry.Kind{telemetry.Cloned}, singleRun(clone(NewPaldiaHedged(95), 4))},
		{"clone-2-spot-failures", []telemetry.Kind{telemetry.NodeRevoked, telemetry.NodeFailed},
			singleRun(failures(spotCfg(clone(NewPaldiaCloneK(2, false), 5))))},
		{"hedge-95-spot-failures", []telemetry.Kind{telemetry.NodeRevoked, telemetry.NodeFailed},
			singleRun(failures(spotCfg(clone(NewPaldiaHedged(95), 6))))},
		{"multi-2", nil, func(rec *telemetry.Recorder, chk *invariant.Checker) digestOutput {
			res := RunMulti(MultiConfig{
				Workloads: []Workload{
					{Model: resnet, Trace: trace.Azure(sim.NewRNG(5), 150, 2*time.Minute)},
					{Model: model.MustByName("MobileNet"), Trace: trace.Azure(sim.NewRNG(6), 200, 2*time.Minute)},
				},
				Scheme:     NewPaldia(),
				Telemetry:  rec,
				Invariants: chk,
			})
			var out digestOutput
			for _, c := range res.PerWorkload {
				var csv bytes.Buffer
				if err := c.WriteCSV(&csv); err != nil {
					panic(err)
				}
				out.csvs = append(out.csvs, &csv)
			}
			res.PerWorkload = nil
			out.result = fmt.Sprintf("%+v", res)
			return out
		}},
	}
}

func shortHash(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// digestLine runs one case invariant-checked and renders its digest row:
// hashes of the masked Result, the collector CSV(s), the spans JSONL and
// the raw event stream (sampled gauges included).
func digestLine(t *testing.T, c digestCase) string {
	rec := telemetry.NewRecorder()
	chk := invariant.New()
	out := c.run(rec, chk)
	if err := chk.Err(); err != nil {
		t.Fatalf("%s: not invariant-clean:\n%v", c.name, err)
	}
	seen := map[telemetry.Kind]bool{}
	for _, e := range rec.Events() {
		seen[e.Kind] = true
	}
	for _, k := range c.need {
		if !seen[k] {
			t.Errorf("%s: no %s event; the row lost its coverage", c.name, k)
		}
	}
	var csv []byte
	for _, b := range out.csvs {
		csv = append(csv, b.Bytes()...)
	}
	var spans, events bytes.Buffer
	if err := rec.WriteSpansJSONL(&spans); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteEventsJSONL(&events); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s result=%s csv=%s spans=%s events=%s", c.name,
		shortHash([]byte(out.result)), shortHash(csv), shortHash(spans.Bytes()), shortHash(events.Bytes()))
}

// TestServingDigestsDeterministic pins the serving runtime's observable
// behaviour across its scheme families — Paldia with failures, revocation
// and scale-out, pinned scale-out, clone-to-k, synchronized clones, hedging
// under revocation and failures, and a two-tenant RunMulti — to recorded
// digests. A refactor of the runtime must leave every row unchanged; a
// deliberate behaviour change re-records the rows it moves with
// `go test ./internal/core -run TestServingDigestsDeterministic -update`.
func TestServingDigestsDeterministic(t *testing.T) {
	var got []string
	for _, c := range digestCases() {
		got = append(got, digestLine(t, c))
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (record with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("digest matrix has %d rows, want %d (re-record with -update)", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest row changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
