package perfmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/profile"
)

func baseInputs() Inputs {
	return Inputs{
		Solo:      100 * time.Millisecond,
		BatchSize: 64,
		FBR:       0.5,
		N:         256,
		SLO:       200 * time.Millisecond,
	}
}

func TestTMaxAllQueued(t *testing.T) {
	in := baseInputs()
	// y = N: pure time sharing, T_max = Solo * N/BS = 100ms * 4 = 400ms.
	got := TMax(in, in.N)
	want := 400 * time.Millisecond
	if got != want {
		t.Fatalf("TMax(all queued) = %v, want %v", got, want)
	}
}

func TestTMaxAllSpatial(t *testing.T) {
	in := baseInputs()
	// y = 0: 4 batches co-located, D = 2.0, inflation = P(2)/P(0.5) times
	// the 4-client MPS overhead.
	got := TMax(in, 0)
	want := time.Duration(float64(100*time.Millisecond) *
		profile.Slowdown(2, 0.5) * profile.ClientOverhead(4))
	if d := got - want; d > time.Microsecond || d < -time.Microsecond {
		t.Fatalf("TMax(all spatial) = %v, want %v", got, want)
	}
}

func TestTMaxHybridBeatsExtremesWhenSaturating(t *testing.T) {
	// With a high FBR and several batches, some interior y must beat both
	// pure spatial and pure time sharing — the core of Insight 2.
	in := Inputs{
		Solo:      100 * time.Millisecond,
		BatchSize: 64,
		FBR:       0.5,
		N:         64 * 10,
		SLO:       2 * time.Second,
	}
	allSpatial := TMax(in, 0)
	allQueued := TMax(in, in.N)
	y, best, _ := BestY(in)
	if !(best < allSpatial && best < allQueued) {
		t.Fatalf("hybrid best %v (y=%d) does not beat spatial %v and queued %v",
			best, y, allSpatial, allQueued)
	}
	if y == 0 || y == in.N {
		t.Fatalf("best y = %d is an extreme; want interior", y)
	}
}

func TestAllSpatialOptimalWhenLightlyLoaded(t *testing.T) {
	// Two low-FBR batches don't saturate: no interference, so any queueing
	// only adds latency and BestY must return y=0.
	in := Inputs{
		Solo:      100 * time.Millisecond,
		BatchSize: 64,
		FBR:       0.3,
		N:         128,
		SLO:       200 * time.Millisecond,
	}
	y, tmax, ok := BestY(in)
	if y != 0 {
		t.Fatalf("BestY = %d, want 0 (no saturation, no reason to queue)", y)
	}
	want := time.Duration(float64(in.Solo) * profile.ClientOverhead(2))
	if tmax != want {
		t.Fatalf("tmax = %v, want %v (solo + 2-client overhead)", tmax, want)
	}
	if !ok {
		t.Fatal("ok = false within SLO")
	}
}

func TestBestYInfeasibleSignalsEscalation(t *testing.T) {
	// A flood no split can serve within the SLO: ok must be false, telling
	// the Hardware Selection module to try the next more performant GPU.
	in := Inputs{
		Solo:      150 * time.Millisecond,
		BatchSize: 64,
		FBR:       0.9,
		N:         64 * 40,
		SLO:       200 * time.Millisecond,
	}
	_, tmax, ok := BestY(in)
	if ok {
		t.Fatalf("ok = true with tmax %v for an impossible load", tmax)
	}
	if tmax <= in.SLO {
		t.Fatalf("tmax = %v <= SLO", tmax)
	}
}

func TestExistingDemandShiftsBestY(t *testing.T) {
	// A busy device (high existing demand) should push the optimizer to
	// queue more than it would on an idle one.
	idle := Inputs{Solo: 100 * time.Millisecond, BatchSize: 64, FBR: 0.8, N: 256, SLO: time.Second}
	busy := idle
	busy.ExistingDemand = 2.0
	yIdle, _, _ := BestY(idle)
	yBusy, _, _ := BestY(busy)
	if yBusy < yIdle {
		t.Fatalf("busy device queues less (y=%d) than idle (y=%d)", yBusy, yIdle)
	}
}

func TestTMaxClampsY(t *testing.T) {
	in := baseInputs()
	if TMax(in, -5) != TMax(in, 0) {
		t.Fatal("negative y not clamped")
	}
	if TMax(in, in.N+100) != TMax(in, in.N) {
		t.Fatal("y > N not clamped")
	}
}

func TestTMaxPanicsOnMalformedInputs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero batch size")
		}
	}()
	TMax(Inputs{Solo: time.Millisecond, BatchSize: 0, N: 1}, 0)
}

func TestCandidates(t *testing.T) {
	in := baseInputs() // N=256, BS=64 -> k=4..0 -> y ascending {0,64,128,192,256}
	got := Candidates(in)
	want := []int{0, 64, 128, 192, 256}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
}

func TestCandidatesPartialBatch(t *testing.T) {
	in := Inputs{Solo: time.Millisecond, BatchSize: 64, N: 100, SLO: time.Second}
	got := Candidates(in)
	// k=2 -> y=0 (clamped from -28), k=1 -> y=36, k=0 -> y=100.
	want := []int{0, 36, 100}
	if len(got) != len(want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates = %v, want %v", got, want)
		}
	}
}

func TestCandidatesEmpty(t *testing.T) {
	if c := Candidates(Inputs{BatchSize: 64, N: 0}); c != nil {
		t.Fatalf("candidates for N=0 = %v, want nil", c)
	}
}

func TestApproxCPUTMax(t *testing.T) {
	got := ApproxCPUTMax(100*time.Millisecond, 16, 40, 30*time.Millisecond)
	want := 30*time.Millisecond + 3*100*time.Millisecond // 3 batches
	if got != want {
		t.Fatalf("ApproxCPUTMax = %v, want %v", got, want)
	}
	if ApproxCPUTMax(time.Second, 16, 0, 7*time.Millisecond) != 7*time.Millisecond {
		t.Fatal("n=0 should return backlog")
	}
}

// Property: BestY's result is never worse than any probed candidate and is
// always within [0, N].
func TestBestYOptimalProperty(t *testing.T) {
	f := func(nRaw, bsRaw uint16, fbrRaw uint8, existRaw uint8) bool {
		in := Inputs{
			Solo:           100 * time.Millisecond,
			BatchSize:      int(bsRaw%128) + 1,
			FBR:            float64(fbrRaw)/100 + 0.05,
			N:              int(nRaw % 2000),
			SLO:            500 * time.Millisecond,
			ExistingDemand: float64(existRaw) / 64,
		}
		y, tmax, _ := BestY(in)
		if y < 0 || y > in.N {
			return false
		}
		for _, c := range Candidates(in) {
			if TMax(in, c) < tmax {
				return false
			}
		}
		return tmax == TMax(in, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// monotoneInputs is the workload shape of the N-monotonicity properties: a
// 32-request batch size with a contended FBR.
func monotoneInputs(n int) Inputs {
	return Inputs{Solo: 50 * time.Millisecond, BatchSize: 32, FBR: 0.6, N: n, SLO: time.Second}
}

// Property: more requests never finish sooner at the all-queued extreme, and
// never sooner at the all-spatial extreme while the batch count k stays
// fixed. Across a batch-count boundary the all-spatial estimate is *not*
// monotone (see TestTMaxSpatialDropsAcrossBatchBoundary), so the property
// only compares N values that split into the same k.
func TestTMaxMonotoneInNProperty(t *testing.T) {
	f := func(n1Raw, n2Raw uint16, kRaw uint8) bool {
		n1, n2 := int(n1Raw%1000)+1, int(n2Raw%1000)+1
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		if TMax(monotoneInputs(n2), n2) < TMax(monotoneInputs(n1), n1) {
			return false
		}
		// Two N values that both split into k batches of 32.
		base := int(kRaw) % 31 * 32
		a, b := int(n1Raw%32)+1, int(n2Raw%32)+1
		if a > b {
			a, b = b, a
		}
		return TMax(monotoneInputs(base+b), 0) >= TMax(monotoneInputs(base+a), 0)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTMaxSpatialDropsAcrossBatchBoundary pins a non-theorem: the all-spatial
// estimate can fall when N grows past a batch boundary. At N=32 one full
// batch runs alone (50 ms); at N=33 two batches run, each charged its fill
// (33/64 of a batch) times the two-job contention inflation, which comes to
// less than one full batch (39.4 ms). Eq. (1)'s fractional-fill
// approximation is what makes two half-full jobs cheaper than one full one;
// with this shape 38 of the 500,500 pairs n1 <= n2 <= 1000 break
// monotonicity, all at such boundaries. If this test starts failing the
// approximation changed, and TestTMaxMonotoneInNProperty may be able to drop
// its fixed-k guard.
func TestTMaxSpatialDropsAcrossBatchBoundary(t *testing.T) {
	full, split := TMax(monotoneInputs(32), 0), TMax(monotoneInputs(33), 0)
	if full != 50*time.Millisecond {
		t.Fatalf("TMax(N=32, y=0) = %v, want one solo batch (50ms)", full)
	}
	if split >= full {
		t.Fatalf("TMax(N=33, y=0) = %v, no longer below TMax(N=32, y=0) = %v", split, full)
	}
}

// Property: the probe overhead stays tiny (the paper reports < 3 ms); allow
// a lenient bound to avoid flaky CI while still catching pathological blowup.
func TestBestYOverhead(t *testing.T) {
	in := Inputs{Solo: 100 * time.Millisecond, BatchSize: 8, FBR: 0.7, N: 4000, SLO: time.Second}
	start := time.Now()
	BestY(in)
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("BestY took %v for 500 candidates; want well under 50ms", el)
	}
}

func TestExistingLaneRaisesQueuedCost(t *testing.T) {
	in := baseInputs()
	withLane := in
	withLane.ExistingLane = 150 * time.Millisecond
	// Pure spatial is unaffected by the lane backlog...
	if TMax(in, 0) != TMax(withLane, 0) {
		t.Fatal("lane backlog leaked into the spatial-only estimate")
	}
	// ...but any queued portion waits behind it.
	if TMax(withLane, 64) != TMax(in, 64)+150*time.Millisecond {
		t.Fatalf("queued estimate %v does not include the lane backlog (base %v)",
			TMax(withLane, 64), TMax(in, 64))
	}
}

func TestComputeFractionBindsTMax(t *testing.T) {
	// Four batches each occupying 0.5 of the device: C = 2 binds over the
	// mild bandwidth penalty.
	in := Inputs{
		Solo:        100 * time.Millisecond,
		BatchSize:   64,
		FBR:         0.1,
		ComputeFrac: 0.5,
		N:           256,
		SLO:         time.Second,
	}
	got := TMax(in, 0)
	want := time.Duration(float64(100*time.Millisecond) * 2 * profile.ClientOverhead(4))
	if d := got - want; d > time.Microsecond || d < -time.Microsecond {
		t.Fatalf("compute-bound TMax = %v, want %v", got, want)
	}
}

func TestExistingJobsAddClientOverhead(t *testing.T) {
	in := Inputs{
		Solo:      100 * time.Millisecond,
		BatchSize: 64,
		FBR:       0.1,
		N:         64,
		SLO:       time.Second,
	}
	alone := TMax(in, 0)
	in.ExistingJobs = 4
	crowded := TMax(in, 0)
	if crowded <= alone {
		t.Fatalf("existing clients did not inflate TMax: %v vs %v", crowded, alone)
	}
	want := time.Duration(float64(alone) * profile.ClientOverhead(5) / profile.ClientOverhead(1))
	if d := crowded - want; d > time.Microsecond || d < -time.Microsecond {
		t.Fatalf("crowded TMax = %v, want %v", crowded, want)
	}
}
