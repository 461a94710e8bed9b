# Paldia reproduction — common targets.

GO ?= go

# Pinned so lint runs are reproducible across CI and laptops; bump
# deliberately (the invocation fetches exactly this version via the module
# proxy, no global install needed).
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test vet lint race bench bench-smoke scale-smoke live-smoke \
	experiments figures fuzz fuzz-smoke test-invariants test-determinism \
	pgo profile clean

# go build applies cmd/paldia-sim/default.pgo automatically (profile-guided
# optimization); refresh it with `make pgo` after hot-path changes.
build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting + static analysis gate (the CI lint job). gofmt -l prints
# offending files and fails the target if any exist.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# The bench module (bench/, its own go.mod) builds against this one, so a
# change to an API it uses must pass its vet and tests too.
test: vet
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Each simulation is single-goroutine, but the experiment runner fans cells
# out over a worker pool; -race plus the -cpu 1,4 equality run guard the
# collection-by-index determinism contract. The sharded executor drains the
# merged telemetry while its workers step the next epoch; the -cpu 1,2,4 run
# races that drain against the lane feeds.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,4 -run 'SerialParallel|SharedPool' ./internal/experiments/
	$(GO) test -race -cpu 1,4 -run 'OnlineConcurrentSnapshot' ./internal/metrics/
	$(GO) test -race -cpu 1,2,4 -run 'Merge|Sharded' ./internal/shard/ ./internal/telemetry/

# Benchstat-comparable benchmark pass (3 counts): one benchmark per paper
# figure/table plus the serial-vs-parallel grid pair. Compare runs with
#   benchstat old.txt BENCH_parallel.txt
# The second step regenerates the machine-readable scheduling hot-path
# numbers (ns/op, B/op, allocs/op, Fig. 3 wall clock) as BENCH_sched.json.
bench:
	$(GO) test -bench=. -benchmem -count=3 -run '^$$' . | tee BENCH_parallel.txt
	$(GO) run ./cmd/paldia-bench -out BENCH_sched.json

# One iteration of every benchmark, as a CI smoke test, plus the scheduling
# gate: paldia-bench -gate fails if any Eq. (1) probing or hardware-selection
# path allocates again, or if any gated benchmark's ns/op regresses more than
# 25% against the committed BENCH_sched.json (ratios are normalized by their
# median first, so raw host-speed differences cancel). To re-baseline after an
# intentional perf change, run `make bench` and commit the refreshed
# BENCH_sched.json.
bench-smoke:
	$(GO) test -bench=. -benchmem -benchtime=1x -run '^$$' .
	$(GO) run ./cmd/paldia-bench -gate

# Ten-million-request sharded streaming run under a hard heap ceiling — the
# scale mode's constant-memory contract (lazy curve arrivals + online metrics
# + shared partitioned rate curve). Observed peak is ~80 MiB, dominated by
# the 91h rate curve; 192 MiB only trips if an O(requests) buffer or a
# per-lane curve copy sneaks back into the streaming path.
scale-smoke:
	$(GO) run ./cmd/paldia-sim -stream -requests 10000000 -tenants 4 -j 4 -max-heap-mib 192

# Refresh the committed PGO profile from the representative sharded
# 10M-request streaming run (the same workload as scale-smoke). go build
# picks cmd/paldia-sim/default.pgo up automatically, so committing the
# refreshed profile is all it takes for every subsequent build — local and
# CI — to be guided by it.
pgo:
	$(GO) run ./cmd/paldia-sim -stream -requests 10000000 -tenants 4 -j 4 -cpuprofile cmd/paldia-sim/default.pgo
	@echo "refreshed cmd/paldia-sim/default.pgo — commit it to apply everywhere"

# CPU + allocation profiles of the same sharded 10M grid, for pprof work
# (see EXPERIMENTS.md "Profiling the hot path"). Writes profiles/ next to a
# paldia-sim binary built with the committed PGO profile so the flame graph
# matches what ships.
profile:
	mkdir -p profiles
	$(GO) build -o profiles/paldia-sim ./cmd/paldia-sim
	profiles/paldia-sim -stream -requests 10000000 -tenants 4 -j 4 \
		-cpuprofile profiles/scale.cpu.pprof -memprofile profiles/scale.allocs.pprof
	$(GO) tool pprof -top -nodecount 15 profiles/paldia-sim profiles/scale.cpu.pprof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space profiles/paldia-sim profiles/scale.allocs.pprof

# Live observability plane end-to-end: serve a short paced replay, scrape
# /metrics, read the SSE feed, assert clean shutdown. curl-based; see the
# script for the exact checks.
live-smoke:
	sh scripts/live_smoke.sh

# Full-scale regeneration of the evaluation (writes results + SVG figures).
experiments:
	$(GO) run ./cmd/paldia-experiments -reps 3 -scale 1 -svg figures | tee results_full.txt

figures:
	$(GO) run ./cmd/paldia-experiments -run fig3,fig6,fig9,fig10 -reps 1 -scale 0.2 -svg figures >/dev/null

fuzz:
	$(GO) test ./internal/trace/ -fuzz FuzzLoad -fuzztime 30s

# Ten seconds of every fuzz target. Go's -fuzz flag must match exactly one
# target per invocation, hence one line per target.
fuzz-smoke:
	$(GO) test ./internal/trace/ -fuzz '^FuzzLoad$$' -fuzztime 10s
	$(GO) test ./internal/trace/ -fuzz '^FuzzWindowCounts$$' -fuzztime 10s
	$(GO) test ./internal/metrics/ -fuzz '^FuzzReadCSV$$' -fuzztime 10s
	$(GO) test ./internal/core/ -fuzz '^FuzzConfigValidate$$' -fuzztime 10s
	$(GO) test ./internal/core/ -fuzz '^FuzzRun$$' -fuzztime 10s

# The entire registered experiment grid (every figure, table, ablation) with
# the runtime invariant checker attached to every simulation; any law
# violation fails the sweep. See DESIGN.md §6.
test-invariants:
	$(GO) test ./internal/experiments/ -run TestAllExperimentsCleanUnderInvariants -count=1 -v

# The seed-determinism contract — byte-identical Result, per-request CSV,
# spans JSONL and series CSV from identically seeded runs, byte-identical
# sharded output at any worker count, and paldia-sim's CLI goldens at -j 1
# and -j 4 — under the race detector at 1 and 4 procs.
test-determinism:
	$(GO) test -race -cpu 1,4 -run 'Deterministic' ./internal/core/ ./internal/shard/ ./internal/predict/ ./cmd/paldia-sim/ -count=1

clean:
	rm -rf figures
