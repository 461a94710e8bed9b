package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"sync"
	"syscall"
	"time"
)

// repSample is one measured repetition. Host times are scaled to the
// reference host (see meter).
type repSample struct {
	wall, cpu  float64 // seconds
	rawWall    float64 // seconds as read, for ratios within a pair
	setup      float64 // seconds
	host       float64 // host kernel time over refKernelMs: above 1 is a slow host
	allocBytes uint64
	allocObjs  uint64
	peakLive   uint64
	sum        summary
}

// refKernelMs is the host kernel's time on the reference host, a 2-core
// Xeon VM. Every host time the benchmark reports is divided by the host's
// current kernel time over this, so a shared host whose speed drifts by
// +-20 % over minutes reads as the reference host would; in trials this
// cut the run-to-run spread of a throughput median two to five times.
const refKernelMs = 65.0

// meter measures repetitions, timing the host kernel between them.
type meter struct {
	k        *hostKernel
	last     float64   // latest kernel reading, ms; 0 before the first
	readings []float64 // every kernel reading, for the drift record
}

func newMeter() *meter { return &meter{k: newHostKernel()} }

func (m *meter) kernel() float64 {
	runtime.GOMAXPROCS(1)
	m.last = m.k.run()
	m.readings = append(m.readings, m.last)
	return m.last
}

// measure runs fn once at the given GOMAXPROCS, after a full GC so each
// repetition starts from the same heap, and records host wall and CPU time,
// allocation and peak live heap. Only fn is measured; the summary function
// it returns runs afterwards. The host kernel brackets the repetition (the
// previous repetition's closing reading opens this one).
func (m *meter) measure(procs int, fn func() func() summary) repSample {
	before := m.last
	if before == 0 {
		before = m.kernel()
	}
	runtime.GOMAXPROCS(procs)
	runtime.GC()
	a0 := readAllocs()
	hs := startHeapSampler()
	c0 := cpuTime()
	t0 := time.Now()
	fin := fn()
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	peak := hs.stop()
	a1 := readAllocs()
	host := (before + m.kernel()) / 2 / refKernelMs
	sum := fin()
	return repSample{
		wall:       wall.Seconds() / host,
		cpu:        cpu.Seconds() / host,
		rawWall:    wall.Seconds(),
		setup:      sum.setup.Seconds() / host,
		host:       host,
		allocBytes: a1[0].Value.Uint64() - a0[0].Value.Uint64(),
		allocObjs:  a1[1].Value.Uint64() - a0[1].Value.Uint64(),
		peakLive:   peak,
		sum:        sum,
	}
}

func readAllocs() []rtmetrics.Sample {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the live heap (as of the last GC) every 10 ms.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop takes a last reading, waits for the sampler to exit and returns the
// peak.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	return h.peak
}

// hostKernel is a fixed, allocation-free, standard-library-only workload
// shaped like the simulator's hot path: a sort, then a binary-heap event
// loop that bumps a hash-map counter per event. It depends on nothing in
// the repository, so its time tracks the host alone.
type hostKernel struct {
	keys []uint64
	heap []uint64
	hits map[uint64]uint32
}

func newHostKernel() *hostKernel {
	k := &hostKernel{
		keys: make([]uint64, 1<<18),
		heap: make([]uint64, 0, 1024),
		hits: make(map[uint64]uint32, 4096),
	}
	for i := uint64(0); i < 4096; i++ {
		k.hits[i] = 0
	}
	return k
}

// run returns the kernel's wall time in milliseconds.
func (k *hostKernel) run() float64 {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range k.keys {
		k.keys[i] = next()
	}
	t0 := time.Now()
	slices.Sort(k.keys)
	h := k.heap[:0]
	for i := uint64(0); i < 1000; i++ {
		h = heapPush(h, (next()%1000)<<16|i)
	}
	for ev := 0; ev < 400000; ev++ {
		top := h[0]
		h = heapPop(h)
		k.hits[top&4095]++
		h = heapPush(h, ((top>>16)+1+next()%1000)<<16|next()&0xffff)
	}
	k.heap = h
	return float64(time.Since(t0)) / 1e6
}

func heapPush(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []uint64) []uint64 {
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return h
}

// checks counts operations (repetitions, ladder rungs) and the ones that
// failed a correctness check.
type checks struct {
	checkReport
}

func (c *checks) op(problems ...string) {
	c.Attempted++
	var failed bool
	for _, p := range problems {
		if p != "" {
			failed = true
			c.Failures = append(c.Failures, p)
		}
	}
	if failed {
		c.Failed++
	}
}

func expect(cond bool, format string, args ...any) string {
	if cond {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// wlRun accumulates one workload's measurements in a run.
type wlRun struct {
	w      workload
	sz     sizes
	seed   uint64
	hiP    int
	m      *meter
	checks *checks
	ref    summary     // the warm-up repetition's outputs, which every later one must match
	heap   uint64      // the warm-up repetition's peak live heap, bytes
	one    []repSample // timed repetitions at GOMAXPROCS=1
	// ratios holds each pair's 2-CPU over 1-CPU throughput.
	ratios []float64
}

// warm runs the untimed warm-up repetition. For grids it calls the
// experiments entry points directly, so its table digest is the reference
// the hooked repetitions are checked against.
//
// It also measures the peak live heap. The live heap is read only when a GC
// cycle ends, so at the default GOGC a reading lands anywhere from about
// half the peak up, plus whatever was allocated while the cycle marked; on
// the grids, whose retained records peak just before the tables are built,
// timed repetitions read ~155 or ~255 MiB depending on where cycles fell.
// At GOGC=10 both the gap and the floating garbage stay near 10 %.
func (r *wlRun) warm() {
	old := debug.SetGCPercent(10)
	s := r.m.measure(1, func() func() summary { return r.w.run(r.sz, r.seed, true, nil) })
	debug.SetGCPercent(old)
	r.ref, r.heap = s.sum, s.peakLive
	r.checks.op()
}

// rep runs one timed repetition and checks it against the warm-up.
func (r *wlRun) rep(procs int) repSample {
	s := r.m.measure(procs, func() func() summary { return r.w.run(r.sz, r.seed, false, nil) })
	r.checks.op(
		expect(s.sum.digest == r.ref.digest, "%s: output digest at GOMAXPROCS=%d differs from the warm-up (direct) run", r.w.name, procs),
		expect(s.sum.spanDigest == r.ref.spanDigest, "%s: span bytes at GOMAXPROCS=%d differ from the warm-up run", r.w.name, procs),
		expect(s.sum.requests > 0, "%s: no requests simulated", r.w.name),
	)
	return s
}

// pair runs the workload at GOMAXPROCS 1 and at hiP back to back, in
// alternating order, so slow drift in host speed hits both sides alike. The
// speedup compares raw wall times: within a pair drift is small, and
// scaling each side by its own kernel readings would only add their noise.
func (r *wlRun) pair(hiFirst bool) {
	var one, hi repSample
	if hiFirst {
		hi, one = r.rep(r.hiP), r.rep(1)
	} else {
		one, hi = r.rep(1), r.rep(r.hiP)
	}
	r.one = append(r.one, one)
	r.ratios = append(r.ratios, one.rawWall/hi.rawWall)
}

// endToEnd reduces the repetitions to the end-to-end metrics. Every metric
// but speedup_2cpu and peak_live_heap_mib (see warm) comes from the timed
// repetitions at GOMAXPROCS=1: on a shared 2-vCPU host, throughput medians
// at GOMAXPROCS=2 spread 1.5-2.5 times wider from run to run, because the
// second vCPU's availability varies, and speedup_2cpu already carries what
// a second CPU adds.
func (r *wlRun) endToEnd() map[string]stat {
	col := func(f func(repSample) float64) stat {
		xs := make([]float64, len(r.one))
		for i, s := range r.one {
			xs[i] = f(s)
		}
		return summarize(xs)
	}
	perReq := func(v uint64, s repSample) float64 { return float64(v) / float64(s.sum.requests) }
	return map[string]stat{
		"sim_req_per_s":       col(func(s repSample) float64 { return float64(s.sum.requests) / s.wall }),
		"setup_s":             col(func(s repSample) float64 { return s.setup }),
		"alloc_bytes_per_req": col(func(s repSample) float64 { return perReq(s.allocBytes, s) }),
		"allocs_per_req":      col(func(s repSample) float64 { return perReq(s.allocObjs, s) }),
		"peak_live_heap_mib":  summarize([]float64{float64(r.heap) / (1 << 20)}),
		"speedup_2cpu":        summarize(r.ratios),
		"slo_compliance_pct":  col(func(s repSample) float64 { return s.sum.compliance * 100 }),
		"p99_ms":              col(func(s repSample) float64 { return s.sum.p99Median() }),
		"cost_usd":            col(func(s repSample) float64 { return s.sum.cost }),
	}
}

func medianWall(reps []repSample) float64 {
	xs := make([]float64, len(reps))
	for i, s := range reps {
		xs[i] = s.wall
	}
	return median(xs)
}

// traced runs the traced pass at GOMAXPROCS=1, so the CPU profile and the
// seam timers split one core's time: instrumented repetitions, under a CPU
// profile, until budget has elapsed (at least one). The overhead figure
// compares them with the timed repetitions in r.one.
func (r *wlRun) traced(budget time.Duration) (map[string]float64, error) {
	overhead := timerCost()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		t        layerTotals
		walls    []float64
		cpu      float64 // seconds, host-scaled
		host     float64
		requests int
		failed   int
		reps     int
	)
	deadline := time.Now().Add(budget)
	for reps == 0 || time.Now().Before(deadline) {
		ps := &probes{}
		s := r.m.measure(1, func() func() summary {
			// The label marks the repetition's samples (and its goroutines')
			// so kernel readings and summaries stay out of the profile.
			var fin func() summary
			pprof.Do(context.Background(), pprof.Labels(profLabelKey, profLabelValue), func(context.Context) {
				fin = r.w.run(r.sz, r.seed, false, ps)
			})
			return fin
		})
		rt := ps.totals()
		r.checks.op(
			expect(s.sum.digest == r.ref.digest, "%s: traced output differs from the timed run", r.w.name),
			expect(rt.checkErr == nil, "%s: traced run not invariant-clean: %v", r.w.name, rt.checkErr),
			expect(rt.arrivals == int64(s.sum.requests), "%s: %d arrivals drawn but %d requests recorded", r.w.name, rt.arrivals, s.sum.requests),
		)
		t.merge(rt)
		walls = append(walls, s.wall)
		cpu += s.cpu
		host += s.host
		requests += s.sum.requests
		failed += s.sum.failed
		reps++
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}

	// Seam timers read raw host nanoseconds; scale them like every other
	// host time, by the mean host factor of the traced repetitions.
	host /= float64(reps)
	n := float64(requests)
	next, add := t.next.estimate()/host, t.add.estimate()/host
	sel, split, sink := t.sel.estimate()/host, t.split.estimate()/host, t.sink.estimate()/host
	calls := float64(t.next.calls + t.add.calls + t.sel.calls + t.split.calls + t.sink.calls)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perRep := func(v int64) float64 { return float64(v) / float64(reps) }
	out := map[string]float64{
		"trace.next_ns":             next / n,
		"trace.next_calls":          perRep(t.arrivals),
		"metrics.add_ns":            ratio(add, float64(t.pacedRequests)),
		"core.select_ns":            sel / n,
		"core.select_calls":         perRep(t.sel.calls),
		"core.split_ns":             split / n,
		"core.split_calls":          perRep(t.split.calls),
		"telemetry.sink_ns":         sink / n,
		"telemetry.events_per_req":  float64(t.sink.calls) / n,
		"shard.epochs":              perRep(t.epochs),
		"shard.epoch_us":            ratio(float64(t.epochWall)/1e3/host, float64(t.epochs)),
		"sim.instants_per_req":      ratio(float64(t.instants), float64(t.pacedRequests)),
		"core.residual_ns_per_req":  (cpu*1e9 - next - add - sel - split - sink - calls*overhead/host) / n,
		"sim.failed_req_pct":        float64(failed) / n * 100,
		"batch.mean_batch":          ratio(float64(t.batchSum), float64(t.jobs)),
		"device.jobs":               perRep(t.jobs),
		"device.queued_share":       ratio(float64(t.queuedJobs), float64(t.jobs)) * 100,
		"container.cold_boots":      perRep(t.coldBoots),
		"container.prewarmed":       perRep(t.prewarmed),
		"container.reaped":          perRep(t.reaped),
		"cluster.nodes_requested":   perRep(t.nodesRequested),
		"cluster.hw_switches":       perRep(t.hwSwitches),
		"cluster.revocations":       perRep(t.revoked),
		"redundancy.copies_per_req": float64(t.cloned) / n,
		"redundancy.cancel_ratio":   ratio(float64(t.cancelled), float64(t.cloned)),
		"bench.trace_overhead_pct":  (median(walls)/medianWall(r.one) - 1) * 100,
	}
	for g, v := range shares {
		out["cpu."+g] = v
	}
	return out, nil
}

// ladderPasses is how many times the ladder runs its rungs, in turn, so
// each rung's cost is a median over passes spread across the run.
const ladderPasses = 3

// ladder runs every rung ladderPasses times at GOMAXPROCS=1 and reports
// each rung's median marginal host ns and allocated bytes per request over
// the base rung (ladder.base.* is the base itself).
func ladder(m *meter, sz sizes, seed uint64, c *checks) map[string]float64 {
	ns := map[string][]float64{}
	bytes := map[string][]float64{}
	var baseDigest uint64
	for pass := 0; pass < ladderPasses; pass++ {
		for _, rung := range ladderRungs {
			var (
				reqs   int
				digest uint64
				err    error
			)
			s := m.measure(1, func() func() summary {
				reqs, digest, err = runLadderRung(rung, sz, seed)
				return func() summary { return summary{} }
			})
			if rung == "base" && pass == 0 {
				baseDigest = digest
			}
			c.op(
				expect(err == nil, "ladder %s: %v", rung, err),
				expect(digest == baseDigest, "ladder %s: simulated outputs differ from the base rung", rung),
			)
			ns[rung] = append(ns[rung], s.wall*1e9/float64(reqs))
			bytes[rung] = append(bytes[rung], float64(s.allocBytes)/float64(reqs))
		}
	}
	out := map[string]float64{}
	baseNs, baseB := median(ns["base"]), median(bytes["base"])
	for _, rung := range ladderRungs {
		n, b := median(ns[rung]), median(bytes[rung])
		if rung != "base" {
			n, b = n-baseNs, b-baseB
		}
		out["ladder."+rung+".ns_per_req"] = n
		out["ladder."+rung+".bytes_per_req"] = b
	}
	return out
}
