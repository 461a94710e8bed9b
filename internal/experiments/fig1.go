package experiments

import (
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/device"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fig. 1 is the paper's motivation experiment: two inference workloads —
// SENet 18 and DenseNet 121 — co-served on a single GPU under the stable
// Wiki-derived trace, comparing pure time sharing and pure MPS sharing on
// both the most performant (V100) and most cost-effective (M60) GPU against
// an Offline Hybrid whose time/spatial split is found by an offline sweep.
//
// The paper's rates (SENet mu~575 rps, DenseNet mu~160 rps) put *their* M60
// at high utilization; our calibrated M60 is stronger (it matches the §II
// ResNet-50@750rps claim), so the rates are scaled by a single factor to
// reproduce the same operating regime (~0.85 utilization on the M60). The
// substitution is recorded in the table notes.

// fig1MaxWait is the uniform-batching timeout: a stream dispatches when its
// batch fills or its oldest request has waited this long (half the SLO
// budget, as fixed-batch serving must).
const fig1MaxWait = 100 * time.Millisecond

// fig1RateScale maps the paper's rates onto our M60 so the combined serial
// utilization — including per-batch launch overhead at the batch sizes the
// timeout actually yields — lands at ~0.9, the regime where the paper's
// tradeoff between queueing and interference bites.
func fig1RateScale() float64 {
	m60, _ := hardware.ByName("M60")
	paperRates := []float64{575, 160}
	batchSizes := []int{128, 64}
	models := []model.Spec{model.MustByName("SENet 18"), model.MustByName("DenseNet 121")}

	util := func(s float64) float64 {
		u := 0.0
		for i, m := range models {
			rate := paperRates[i] * s
			b := rate * fig1MaxWait.Seconds()
			if b > float64(batchSizes[i]) {
				b = float64(batchSizes[i])
			}
			if b < 1 {
				b = 1
			}
			batchesPerSec := rate / b
			u += rate*profile.Lookup(m, m60).SoloSample.Seconds() +
				batchesPerSec*profile.GPULaunchOverhead.Seconds()
		}
		return u
	}
	lo, hi := 0.05, 5.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if util(mid) < 0.9 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// fig1Workload is one co-served stream.
type fig1Workload struct {
	model   model.Spec
	rate    float64
	batchSz int
}

func fig1Workloads() []fig1Workload {
	s := fig1RateScale()
	return []fig1Workload{
		{model: model.MustByName("SENet 18"), rate: 575 * s, batchSz: 128},
		{model: model.MustByName("DenseNet 121"), rate: 160 * s, batchSz: 64},
	}
}

// fig1Result is the outcome of one scheme for one workload.
type fig1Result struct {
	scheme    string
	workload  string
	breakdown metrics.Breakdown
	compl     float64
	costPerH  float64
}

// runFig1Scheme co-serves both workloads on the given GPU with a fixed
// queued fraction per dispatch window (0 = MPS only, 1 = time shared only).
func runFig1Scheme(seed uint64, hw hardware.Spec, queuedFrac float64,
	dur time.Duration, slo time.Duration) []*metrics.Collector {

	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	loads := fig1Workloads()
	// Device memory bounds co-location, as everywhere else.
	entries := make([]*profile.Entry, len(loads))
	for i, w := range loads {
		entries[i] = profile.Lookup(w.model, hw)
	}
	dev := device.New(eng, hw, min(entries[0].MaxResidentJobs, entries[1].MaxResidentJobs))

	collectors := make([]*metrics.Collector, len(loads))
	batchers := make([]*batch.Batcher, len(loads))
	traces := make([]*trace.Trace, len(loads))
	idx := make([]int, len(loads))
	for i, w := range loads {
		collectors[i] = metrics.NewCollector(slo)
		batchers[i] = &batch.Batcher{}
		traces[i] = trace.Stable(rng.Child(w.model.Name), w.rate, dur)
	}

	// Arrival feeders (one lazy event chain per stream).
	for i := range loads {
		i := i
		arr := traces[i].Arrivals
		var next func()
		next = func() {
			now := eng.Now()
			for idx[i] < len(arr) && arr[idx[i]] <= now {
				batchers[i].Add(arr[idx[i]])
				idx[i]++
			}
			if idx[i] < len(arr) {
				eng.ScheduleAt(arr[idx[i]], next)
			}
		}
		if len(arr) > 0 {
			eng.ScheduleAt(arr[0], next)
		}
	}

	// Dispatch discipline: the paper's uniform batching — a stream
	// dispatches a batch once it fills its fixed batch size, or when its
	// oldest request has waited maxWait. The scheme's fixed fraction picks
	// which batches are queued (time shared) versus spatially shared: out of
	// every run of batches, the first queuedFrac share are queued.
	const (
		tickEvery = 10 * time.Millisecond
		maxWait   = fig1MaxWait
	)
	end := dur
	// Deterministic even interleave of queued batches at the given
	// fraction (error-diffusion accumulator per stream).
	queuedAcc := make([]float64, len(loads))
	submit := func(i int, b []batch.Request) {
		e := entries[i]
		mode := device.Spatial
		queuedAcc[i] += queuedFrac
		if queuedAcc[i] >= 1-1e-9 {
			queuedAcc[i]--
			mode = device.Queued
		}
		at := eng.Now()
		job := &device.Job{
			Batch:   len(b),
			Solo:    e.SoloAt(len(b)),
			FBR:     e.FBR,
			Compute: e.ComputeAt(len(b)),
			Mode:    mode,
		}
		job.Done = func(j *device.Job) {
			for _, r := range b {
				collectors[i].Add(metrics.Record{
					Arrival:      r.Arrival,
					Latency:      eng.Now() - r.Arrival,
					BatchWait:    at - r.Arrival,
					QueueDelay:   j.QueueDelay(),
					Interference: j.Interference(),
					MinExec:      j.Solo,
				})
			}
		}
		dev.Submit(job)
	}
	eng.Every(tickEvery, func() bool { return eng.Now() < end }, func() {
		now := eng.Now()
		for i := range loads {
			for batchers[i].Pending() >= loads[i].batchSz {
				submit(i, batchers[i].TakeUpTo(loads[i].batchSz))
			}
			if oldest, ok := batchers[i].OldestArrival(); ok && now-oldest >= maxWait {
				submit(i, batchers[i].TakeAll())
			}
		}
	})
	eng.Run(end + 10*time.Second)
	return collectors
}

// fig1Compliance is the request-weighted compliance across both workloads.
func fig1Compliance(cols []*metrics.Collector) float64 {
	total, ok := 0, 0.0
	for _, c := range cols {
		total += c.Count()
		ok += c.SLOCompliance() * float64(c.Count())
	}
	if total == 0 {
		return 1
	}
	return ok / float64(total)
}

// Fig1 regenerates the motivation figure.
func Fig1(o Options) *Table {
	o = o.normalize()
	dur := o.dur(10 * time.Minute)
	const slo = 200 * time.Millisecond
	v100, _ := hardware.ByName("V100")
	m60, _ := hardware.ByName("M60")

	// Offline sweep for the hybrid's queued fraction on the M60 (the paper
	// sweeps workload-occupancy combinations beforehand). The sweep points fan
	// out over the pool; the argmax scans indexed results in sweep order, so
	// ties break identically to a serial sweep.
	var fracs []float64
	for f := 0.0; f <= 0.91; f += 0.1 {
		fracs = append(fracs, f)
	}
	compls := make([]float64, len(fracs))
	o.parRange(len(fracs), func(i int) {
		compls[i] = fig1Compliance(runFig1Scheme(o.Seed, m60, fracs[i], dur/2, slo))
	})
	bestFrac, bestCompl := 0.0, -1.0
	for i, f := range fracs {
		if compls[i] > bestCompl {
			bestCompl, bestFrac = compls[i], f
		}
	}

	schemes := []struct {
		name string
		hw   hardware.Spec
		frac float64
	}{
		{"Time Shared Only (P)", v100, 1},
		{"MPS Only (P)", v100, 0},
		{"Time Shared Only ($)", m60, 1},
		{"MPS Only ($)", m60, 0},
		{"Offline Hybrid", m60, bestFrac},
	}

	t := &Table{
		ID:    "fig1",
		Title: "Motivation: P99 breakdown and SLO compliance, SENet 18 + DenseNet 121 co-served",
		Columns: []string{"scheme", "GPU", "workload", "SLO compliance",
			"P99 total", "P99 min-exec", "P99 queueing", "P99 interference", "node $/h"},
	}
	loads := fig1Workloads()
	schemeCols := make([][]*metrics.Collector, len(schemes))
	o.parRange(len(schemes), func(i int) {
		s := schemes[i]
		schemeCols[i] = runFig1Scheme(o.Seed, s.hw, s.frac, dur, slo)
	})
	for si, s := range schemes {
		for i, c := range schemeCols[si] {
			b := c.TailBreakdown(99, 99.9)
			t.Rows = append(t.Rows, []string{
				s.name, s.hw.Accel, loads[i].model.Name,
				pct(c.SLOCompliance()),
				msec(b.Total), msec(b.MinExec),
				msec(b.QueueDelay + b.BatchWait),
				msec(b.Interference),
				fmt.Sprintf("$%.2f", s.hw.CostPerHour),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("rates scaled x%.2f vs the paper's (575/160 rps) so the calibrated M60 "+
			"runs at ~0.9 utilization, the paper's operating regime", fig1RateScale()),
		fmt.Sprintf("offline hybrid swept queued fractions 0..0.9; best = %.1f", bestFrac),
	)
	return t
}
