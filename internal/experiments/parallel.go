package experiments

// Parallel execution of the experiment grid.
//
// The paper's evaluation is embarrassingly parallel: every (model, trace,
// scheme, repetition) cell is an independent core.Run whose randomness
// derives from Seed.Child("rep-N") and whose simulation state (engine,
// cluster) is created inside the run. Cells share two things, both
// read-only while a run holds them:
//
//   - Realized traces. Cells that name the same source run on one trace per
//     repetition, realized by the first of them to start and dropped after
//     the last finishes; no run writes to its Trace.
//   - Record storage. runCells lends each run an emptied Collector from a
//     free list and takes it back once the run's own reduction has read it,
//     never while a run holds it.
//
// So cells can execute on any number of workers in any order — as long as
// results are collected *indexed by cell*, every aggregate, table, terminal
// plot and SVG is byte-identical to a serial run.
//
// Three layers cooperate:
//
//   - Pool: a token bucket bounding how many simulations execute at once.
//     cmd/paldia-experiments shares one Pool across concurrently running
//     figures so nested fan-out never oversubscribes the machine.
//   - Options.parRange: the indexed fan-out primitive. Serial runs
//     (Parallelism 1, no shared Pool) use a plain loop — no goroutines at
//     all — so the determinism guarantee is testable against a true serial
//     baseline.
//   - runCells: the grid executor every experiment funnels through.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Pool bounds the number of simulations executing at once. A single Pool may
// be shared by many concurrently running experiments; callers must never
// hold a token while waiting on work that itself needs tokens (the
// experiment runner only acquires around leaf core.Run calls, so figures
// sharing a Pool cannot deadlock).
type Pool struct{ tokens chan struct{} }

// NewPool returns a pool admitting n simulations at once (minimum 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

func (p *Pool) acquire() { <-p.tokens }
func (p *Pool) release() { p.tokens <- struct{}{} }

// Map runs fn(i) for every i in [0, n) across the pool and returns once all
// calls finished. fn must write its result to an i-indexed slot and touch no
// other shared state; reading the slots back in index order then yields
// output identical to a serial loop — the same discipline Options.parRange
// follows. A nil pool runs the plain serial loop.
func (p *Pool) Map(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			p.acquire()
			defer p.release()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// workers resolves the effective parallelism: 0 means one worker per CPU,
// anything below 1 means serial.
func (o Options) workers() int {
	if o.Parallelism == 0 {
		return runtime.NumCPU()
	}
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// parRange runs fn(i) for every i in [0, n). With Parallelism <= 1 and no
// shared Pool it is a plain loop; otherwise the calls fan out over the pool
// in unspecified order. fn must write its result to an i-indexed slot and
// touch no other shared state; parRange returns only after all n calls
// finished, so the caller reads the slots back in index order and the
// assembled output is identical at any parallelism.
func (o Options) parRange(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	pool := o.Pool
	if pool == nil {
		w := o.workers()
		if w == 1 || n == 1 {
			for i := 0; i < n; i++ {
				fn(i)
			}
			return
		}
		pool = NewPool(w)
	}
	pool.Map(n, fn)
}

// source is one arrival-trace recipe of a grid, named by pointer: every cell
// holding the same *source runs on the same realized trace in a repetition.
// Build one per distinct trace, outside the scheme loop; two sources are
// realized apart even when their recipes agree.
type source struct {
	realize func(rng *sim.RNG) *trace.Trace
}

// shared is one input realized for a group of runs: built by the first
// member that asks for it, read by every member, and dropped when the last
// member is done, so a serial grid holds one group's input at a time. Set
// left to the member count before the group starts.
type shared[T any] struct {
	once sync.Once
	v    T
	left atomic.Int32
}

// get returns the input, building it on first use.
func (s *shared[T]) get(build func() T) T {
	s.once.Do(func() { s.v = build() })
	return s.v
}

// done releases one member's hold; the last release drops the input.
func (s *shared[T]) done() {
	if s.left.Add(-1) == 0 {
		var zero T
		s.v = zero
	}
}

// cell is one (model, trace source, scheme, mutator) grid point of an
// experiment.
type cell struct {
	m      model.Spec
	src    *source
	scheme core.Scheme
	mut    mutator
	// reduce, when set, reads one repetition's per-request records: rep,
	// the config it ran (after mut) and the Collector it filled. It runs on
	// the worker right after the run, before the Collector is reused, and
	// must write only a slot indexed by cell and rep.
	reduce func(rep int, cfg core.Config, col *metrics.Collector)
}

// runCells executes every (cell, repetition) pair — each an independent
// core.Run — across the worker pool and aggregates per cell with the
// paper's outlier rule. Results are indexed by (cell, rep), never by
// completion order: aggregates come back in cell order with repetitions in
// rep order, exactly as a serial nested loop would produce them.
//
// Runs start in (source, rep, member) order. A source's trace for one
// repetition is realized once, lent read-only to every cell naming that
// source, and dropped after the last of them, so a serial grid holds one
// realized trace at a time and compares its schemes on identical arrivals.
//
// Each run fills a Collector taken from a free list of at most one per
// worker, so a grid allocates record storage once per worker, not once per
// run. A cell's reduce reads the records; afterwards the Collector goes
// back to the list and the Result keeps none (Results[i].Collector is nil).
func runCells(o Options, cells []cell) []aggregate {
	reps := o.Reps
	var groups [][]int // cell indices per source, in order of first use
	group := map[*source]int{}
	for ci, c := range cells {
		g, ok := group[c.src]
		if !ok {
			g = len(groups)
			group[c.src] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], ci)
	}
	type run struct{ cell, rep, slot int }
	order := make([]run, 0, len(cells)*reps)
	traces := make([]shared[*trace.Trace], len(groups)*reps)
	for g, members := range groups {
		for rep := 0; rep < reps; rep++ {
			slot := g*reps + rep
			traces[slot].left.Store(int32(len(members)))
			for _, ci := range members {
				order = append(order, run{ci, rep, slot})
			}
		}
	}
	results := make([]core.Result, len(cells)*reps)
	free := make(chan *metrics.Collector, o.workers())
	o.parRange(len(order), func(i int) {
		r := order[i]
		c := cells[r.cell]
		rng := sim.NewRNG(o.Seed).Child(fmt.Sprintf("rep-%d", r.rep))
		tr := &traces[r.slot]
		cfg := core.Config{
			Model:  c.m,
			Trace:  tr.get(func() *trace.Trace { return c.src.realize(rng) }),
			Scheme: c.scheme,
			Seed:   rng.Seed(),
		}
		if c.mut != nil {
			c.mut(&cfg)
		}
		var col *metrics.Collector
		select {
		case col = <-free:
		default:
			col = new(metrics.Collector)
		}
		slo := cfg.SLO
		if slo == 0 {
			slo = core.DefaultSLO
		}
		col.Reset(slo)
		cfg.Aggregator = col
		res := o.run(cfg)
		if c.reduce != nil {
			c.reduce(r.rep, cfg, col)
		}
		tr.done()
		res.Collector = nil
		results[r.cell*reps+r.rep] = res
		select {
		case free <- col:
		default:
		}
	})
	out := make([]aggregate, len(cells))
	for ci := range cells {
		out[ci] = aggregateResults(results[ci*reps : (ci+1)*reps])
	}
	return out
}

// aggregateResults folds one cell's repetitions with the paper's 2.5 sigma
// outlier rule, in repetition order.
func aggregateResults(results []core.Result) aggregate {
	var compl, cost, p99, power, ucpu, ugpu []float64
	for _, res := range results {
		compl = append(compl, res.SLOCompliance)
		cost = append(cost, res.Cost)
		p99 = append(p99, float64(res.P99))
		power = append(power, res.AvgPowerW)
		ucpu = append(ucpu, res.UtilCPU)
		ugpu = append(ugpu, res.UtilGPU)
	}
	const k = 2.5
	return aggregate{
		Compliance: metrics.MeanDropOutliers(compl, k),
		Cost:       metrics.MeanDropOutliers(cost, k),
		P99:        time.Duration(metrics.MeanDropOutliers(p99, k)),
		Power:      metrics.MeanDropOutliers(power, k),
		UtilCPU:    metrics.MeanDropOutliers(ucpu, k),
		UtilGPU:    metrics.MeanDropOutliers(ugpu, k),
		Results:    results,
	}
}
