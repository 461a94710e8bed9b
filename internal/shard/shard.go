// Package shard runs several independent simulation lanes — one per tenant —
// concurrently under a conservative virtual-time barrier, so a multi-tenant
// grid uses every core while producing output that is a pure function of the
// lane configs, byte-identical at any worker count.
//
// The decomposition into lanes is a workload decision (how many tenants the
// grid models), never a performance knob: each lane is a complete
// single-tenant core.Run with its own engine, RNG streams, aggregator and
// telemetry sink. Because lanes share nothing, any interleaving of their
// event processing yields the same per-lane trajectories; the barrier exists
// only to keep lanes close enough in virtual time that merged telemetry can
// flush incrementally (bounded memory) and live observers see a coherent
// front. Workers only change wall-clock, which is what makes `-j N`
// byte-identical to `-j 1` by construction rather than by luck.
//
// With one worker the merged telemetry is flushed through each barrier
// before the next epoch starts. With two or more, the coordinator writes
// epoch k's output while the workers step epoch k+1, so at OnBarrier(t) the
// output is written through the previous barrier only; what is written, and
// in which order, is the same.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/telemetry"
)

// DefaultLookahead is the conservative barrier interval: the shortest delay
// after which a lane's present state could depend on anything another lane's
// observer did at a barrier. Lanes share no simulation state, so correctness
// never depends on this value; it bounds how far lanes drift apart between
// merge flushes. It derives from the fastest state-changing latency in the
// serving stack — VM procurement and container cold starts — the same
// quantity a conservative parallel-DES lookahead would use if lanes ever did
// interact.
func DefaultLookahead() time.Duration {
	la := hardware.DefaultProcureDelay
	for _, s := range hardware.Catalog() {
		if s.ProcureDelay > 0 && s.ProcureDelay < la {
			la = s.ProcureDelay
		}
	}
	if container.CPUColdStart < la {
		la = container.CPUColdStart
	}
	if container.GPUColdStart < la {
		la = container.GPUColdStart
	}
	return la
}

// VTBoard publishes each lane's barrier-granular virtual time for observers
// (the -progress ticker reports per-shard lag from it). Reads and writes are
// atomic and may come from any goroutine.
type VTBoard struct {
	vt []atomic.Int64
}

// NewVTBoard returns a board for n lanes, all at virtual time zero.
func NewVTBoard(n int) *VTBoard {
	if n < 1 {
		n = 1
	}
	return &VTBoard{vt: make([]atomic.Int64, n)}
}

// Lanes returns the number of lanes tracked.
func (b *VTBoard) Lanes() int { return len(b.vt) }

// Set records lane i having reached virtual time t.
func (b *VTBoard) Set(i int, t time.Duration) { b.vt[i].Store(int64(t)) }

// Get returns lane i's last published virtual time.
func (b *VTBoard) Get(i int) time.Duration { return time.Duration(b.vt[i].Load()) }

// Bounds returns the slowest and fastest lanes' published virtual times.
func (b *VTBoard) Bounds() (lo, hi time.Duration) {
	lo, hi = b.Get(0), b.Get(0)
	for i := 1; i < len(b.vt); i++ {
		t := b.Get(i)
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return lo, hi
}

// Spread is the virtual-time lag between the fastest and slowest lanes —
// bounded by the lookahead while the barrier loop runs.
func (b *VTBoard) Spread() time.Duration {
	lo, hi := b.Bounds()
	return hi - lo
}

// Options configures a sharded run.
type Options struct {
	// Shards is the worker count; it is clamped to [1, lanes] and affects
	// only wall-clock time, never output.
	Shards int

	// Lookahead is the barrier interval; zero means DefaultLookahead.
	Lookahead time.Duration

	// Merge, when set, is written through each barrier's virtual time as
	// the lanes pass it, so spans stream out in merge order with bounded
	// queues instead of accumulating until the end. With one worker it is
	// flushed at each barrier; with two or more it is cut at each barrier
	// and drained while the lanes step the next epoch, so output lags one
	// barrier behind. Either way everything is written when Run returns.
	// The lane feeds must be Merge.Lane(i) sinks wired into the configs by
	// the caller; Run does not Close the writer.
	Merge *telemetry.MergeWriter

	// Board, when set, receives each lane's virtual time at every barrier;
	// pass the same board to the progress reporter for per-shard lag.
	Board *VTBoard

	// OnBarrier, when set, runs on the coordinator after every barrier,
	// with the lanes quiesced at t. Merge output is written through t with
	// one worker, and only through the previous barrier with two or more
	// (the cut through t drains during the next epoch). Used by tests to
	// assert the barrier invariant and by callers for progress accounting.
	OnBarrier func(t time.Duration)
}

// Run executes one core simulation per config, lanes[i] from cfgs[i], and
// returns their Results in lane order. Output is deterministic in cfgs alone:
// every interleaving of the lane goroutines produces identical Results,
// telemetry and metrics, because lanes share no state and each lane's work
// happens on one goroutine per epoch with barriers ordering everything else.
func Run(cfgs []core.Config, opt Options) []core.Result {
	n := len(cfgs)
	if n == 0 {
		return nil
	}
	la := opt.Lookahead
	if la <= 0 {
		la = DefaultLookahead()
	}
	workers := opt.Shards
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	board := opt.Board
	if board == nil {
		board = NewVTBoard(n)
	} else if board.Lanes() != n {
		panic(fmt.Sprintf("shard: board has %d lanes, want %d", board.Lanes(), n))
	}

	// Construction is cheap and strictly per-lane; doing it serially keeps
	// any construction-time telemetry in lane order.
	lanes := make([]*core.Running, n)
	for i := range cfgs {
		lanes[i] = core.Start(cfgs[i])
		board.Set(i, 0)
	}
	horizon := lanes[0].Horizon()
	for _, l := range lanes[1:] {
		if h := l.Horizon(); h > horizon {
			horizon = h
		}
	}

	// Persistent worker gang: a 100M-request run crosses hundreds of
	// thousands of barriers, so workers live for the whole run and receive
	// lane indices per epoch instead of being respawned. The coordinator's
	// wg.Wait / channel sends order every epoch's target and step function
	// before any worker reads them.
	results := make([]core.Result, n)
	var (
		tasks = make(chan int, n)
		wg    sync.WaitGroup
		step  func(lane int)
	)
	var workerWG sync.WaitGroup
	workerWG.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer workerWG.Done()
			for i := range tasks {
				step(i)
				wg.Done()
			}
		}()
	}
	// The coordinator would idle while the gang steps, so it drains the
	// previous barrier's cut then. One worker flushes inline at the barrier
	// instead: holding a cut across an epoch costs ~21 % more bytes per run
	// (ShardedSpans, 502 against 415 KB/op), and a single worker overlapped
	// measured no faster on 2 vCPUs.
	overlap := opt.Merge != nil && workers > 1
	dispatch := func(fn func(lane int)) {
		step = fn
		wg.Add(n)
		for i := 0; i < n; i++ {
			tasks <- i
		}
		if overlap {
			opt.Merge.Drain()
		}
		wg.Wait()
	}

	for t := la; ; t += la {
		if t > horizon {
			t = horizon
		}
		barrier := t
		dispatch(func(i int) {
			lanes[i].StepTo(barrier)
			board.Set(i, lanes[i].Now())
		})
		switch {
		case overlap:
			opt.Merge.Cut(barrier)
		case opt.Merge != nil:
			opt.Merge.FlushThrough(barrier)
		}
		if opt.OnBarrier != nil {
			opt.OnBarrier(barrier)
		}
		if t >= horizon {
			break
		}
	}

	// Finish is per-lane bookkeeping (drain guard, failed-request flush,
	// result assembly) and may emit trailing telemetry into the lane's own
	// sink, so it parallelizes like an epoch, the last barrier's cut
	// draining meanwhile.
	dispatch(func(i int) {
		results[i] = lanes[i].Finish()
		board.Set(i, lanes[i].Now())
	})
	close(tasks)
	workerWG.Wait()
	if opt.Merge != nil {
		// Anything emitted during Finish (guard-loop completions past the
		// horizon) flushes here; Close, which also writes never-completed
		// spans, stays with the writer's owner.
		opt.Merge.FlushThrough(1<<63 - 1)
	}
	return results
}
