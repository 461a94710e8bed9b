package metrics

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func msec(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSLOCompliance(t *testing.T) {
	c := NewCollector(msec(200))
	for i := 0; i < 90; i++ {
		c.Add(Record{Latency: msec(100)})
	}
	for i := 0; i < 9; i++ {
		c.Add(Record{Latency: msec(300)})
	}
	c.Add(Record{Latency: msec(50), Failed: true})
	if got := c.SLOCompliance(); math.Abs(got-0.90) > 1e-9 {
		t.Fatalf("compliance = %v, want 0.90", got)
	}
	if got := c.Violations(); got != 10 {
		t.Fatalf("violations = %d, want 10", got)
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector(msec(200))
	if c.SLOCompliance() != 1 || c.Percentile(99) != 0 || c.Mean() != 0 {
		t.Fatal("empty collector metrics wrong")
	}
	if c.CDF(10) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	c := NewCollector(msec(1000))
	for i := 1; i <= 100; i++ {
		c.Add(Record{Latency: msec(i)})
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, msec(50)}, {99, msec(99)}, {100, msec(100)}, {1, msec(1)},
	}
	for _, tc := range cases {
		if got := c.Percentile(tc.p); got != tc.want {
			t.Errorf("P%.0f = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPercentileAfterInterleavedAdds(t *testing.T) {
	// Adding after a percentile query must invalidate the cached sort.
	c := NewCollector(msec(1000))
	c.Add(Record{Latency: msec(10)})
	_ = c.Percentile(99)
	c.Add(Record{Latency: msec(500)})
	if got := c.Percentile(100); got != msec(500) {
		t.Fatalf("stale sort: P100 = %v, want 500ms", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	c := NewCollector(msec(200))
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		c.Add(Record{Latency: time.Duration(r.Intn(400)) * time.Millisecond})
	}
	cdf := c.CDF(50)
	if len(cdf) != 50 {
		t.Fatalf("CDF has %d points, want 50", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Latency < cdf[i-1].Latency || cdf[i].Fraction <= cdf[i-1].Fraction {
			t.Fatal("CDF not monotone")
		}
	}
	if cdf[len(cdf)-1].Fraction != 1 {
		t.Fatal("CDF does not reach 1")
	}
}

func TestTailBreakdown(t *testing.T) {
	c := NewCollector(msec(200))
	// 99 fast requests, 1 slow one with known components.
	for i := 0; i < 99; i++ {
		c.Add(Record{Latency: msec(80), MinExec: msec(70), BatchWait: msec(10)})
	}
	c.Add(Record{
		Latency:      msec(400),
		MinExec:      msec(100),
		QueueDelay:   msec(200),
		Interference: msec(90),
		BatchWait:    msec(10),
	})
	b := c.TailBreakdown(99.5, 100)
	if b.Total != msec(400) || b.QueueDelay != msec(200) || b.Interference != msec(90) {
		t.Fatalf("tail breakdown = %+v", b)
	}
	// Components roughly assemble the total.
	sum := b.MinExec + b.BatchWait + b.QueueDelay + b.Interference + b.ColdStart
	if sum != b.Total {
		t.Fatalf("components sum to %v, total %v", sum, b.Total)
	}
}

func TestGoodput(t *testing.T) {
	c := NewCollector(msec(200))
	// 100 requests in [0,10s): 70 within SLO, 30 violations.
	for i := 0; i < 100; i++ {
		lat := msec(100)
		if i < 30 {
			lat = msec(500)
		}
		c.Add(Record{Arrival: time.Duration(i) * 100 * time.Millisecond, Latency: lat})
	}
	if got := c.GoodputRPS(0, 10*time.Second); math.Abs(got-7) > 1e-9 {
		t.Fatalf("goodput = %v rps, want 7", got)
	}
	if got := c.ArrivalRPS(0, 10*time.Second); math.Abs(got-10) > 1e-9 {
		t.Fatalf("arrival rate = %v rps, want 10", got)
	}
	if c.GoodputRPS(5*time.Second, 5*time.Second) != 0 {
		t.Fatal("degenerate window should be 0")
	}
}

func TestMeanDropOutliers(t *testing.T) {
	// One wild outlier among tight values: dropped at k=2.5.
	vals := []float64{10, 11, 9, 10, 10, 10, 11, 9, 10, 100}
	got := MeanDropOutliers(vals, 2.5)
	if got > 12 {
		t.Fatalf("outlier not dropped: mean = %v", got)
	}
	// Fewer than 3 values: plain mean.
	if got := MeanDropOutliers([]float64{1, 100}, 2.5); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("small-sample mean = %v, want 50.5", got)
	}
	if MeanDropOutliers(nil, 2.5) != 0 {
		t.Fatal("empty input should be 0")
	}
	// All-identical values (sd=0) must not divide by zero.
	if got := MeanDropOutliers([]float64{5, 5, 5, 5}, 2.5); got != 5 {
		t.Fatalf("constant values mean = %v, want 5", got)
	}
}

func TestMeanDropOutliersEdgeCases(t *testing.T) {
	// Empty input, both nil and zero-length.
	if MeanDropOutliers([]float64{}, 2.5) != 0 {
		t.Fatal("empty slice should be 0")
	}
	// A single element is its own mean, never an outlier.
	if got := MeanDropOutliers([]float64{7}, 2.5); got != 7 {
		t.Fatalf("single element = %v, want 7", got)
	}
	// When every value sits beyond k sigma (tiny k makes everything an
	// outlier), the rule must not drop the whole sample: fall back to the
	// plain mean instead of 0/NaN.
	got := MeanDropOutliers([]float64{1, 2, 99}, 0.01)
	if math.IsNaN(got) || got == 0 {
		t.Fatalf("all-outlier input = %v, want a finite plain mean", got)
	}
	if want := (1.0 + 2.0 + 99.0) / 3; math.Abs(got-want) > 1e-9 {
		t.Fatalf("all-outlier input = %v, want plain mean %v", got, want)
	}
}

// Property: percentile is monotone in p and bracketed by min/max latency.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(latsRaw []uint16, p1Raw, p2Raw uint8) bool {
		if len(latsRaw) == 0 {
			return true
		}
		c := NewCollector(msec(200))
		minL, maxL := time.Duration(math.MaxInt64), time.Duration(0)
		for _, l := range latsRaw {
			d := time.Duration(l) * time.Millisecond
			c.Add(Record{Latency: d})
			if d < minL {
				minL = d
			}
			if d > maxL {
				maxL = d
			}
		}
		p1 := float64(p1Raw%100) + 0.5
		p2 := float64(p2Raw%100) + 0.5
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := c.Percentile(p1), c.Percentile(p2)
		return v1 <= v2 && v1 >= minL && v2 <= maxL
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: SLO compliance equals the empirical fraction computed naively.
func TestComplianceMatchesNaiveProperty(t *testing.T) {
	f := func(latsRaw []uint16, sloRaw uint16) bool {
		slo := time.Duration(sloRaw%1000+1) * time.Millisecond
		c := NewCollector(slo)
		ok := 0
		for _, l := range latsRaw {
			d := time.Duration(l%2000) * time.Millisecond
			c.Add(Record{Latency: d})
			if d <= slo {
				ok++
			}
		}
		if len(latsRaw) == 0 {
			return c.SLOCompliance() == 1
		}
		want := float64(ok) / float64(len(latsRaw))
		return math.Abs(c.SLOCompliance()-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF fractions at each sampled point are consistent with
// percentile queries.
func TestCDFConsistentWithPercentiles(t *testing.T) {
	c := NewCollector(msec(200))
	r := rand.New(rand.NewSource(7))
	lats := make([]time.Duration, 500)
	for i := range lats {
		lats[i] = time.Duration(r.Intn(1000)) * time.Millisecond
		c.Add(Record{Latency: lats[i]})
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	cdf := c.CDF(100)
	for _, pt := range cdf {
		if got := c.Percentile(pt.Fraction * 100); got != pt.Latency {
			t.Fatalf("CDF point (%v, %v) != percentile %v", pt.Fraction, pt.Latency, got)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	c := NewCollector(msec(200))
	for i := 0; i < 50; i++ {
		c.Add(Record{
			Arrival:      time.Duration(i) * 100 * time.Millisecond,
			Latency:      msec(40 + i),
			BatchWait:    msec(5),
			QueueDelay:   msec(i % 7),
			Interference: msec(i % 3),
			ColdStart:    0,
			MinExec:      msec(30),
			Failed:       i%17 == 0,
		})
	}
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, msec(200))
	if err != nil {
		t.Fatal(err)
	}
	if back.Count() != c.Count() {
		t.Fatalf("round trip lost records: %d vs %d", back.Count(), c.Count())
	}
	if back.SLOCompliance() != c.SLOCompliance() {
		t.Fatalf("compliance changed: %v vs %v", back.SLOCompliance(), c.SLOCompliance())
	}
	if back.Percentile(99) != c.Percentile(99) {
		t.Fatalf("P99 changed: %v vs %v", back.Percentile(99), c.Percentile(99))
	}
	b1, b2 := c.TailBreakdown(90, 100), back.TailBreakdown(90, 100)
	if b1.QueueDelay != b2.QueueDelay || b1.Interference != b2.Interference {
		t.Fatalf("breakdown changed: %+v vs %+v", b1, b2)
	}
}

func TestReadCSVMalformedRows(t *testing.T) {
	header := "arrival_s,latency_ms,batch_wait_ms,queue_delay_ms,interference_ms,cold_start_ms,min_exec_ms,failed,slo_ok\n"
	c, err := ReadCSV(strings.NewReader(header+"1.0,50,0,0,0,0,40,false,true\n"), msec(200))
	if err != nil {
		t.Fatal(err)
	}
	if c.Count() != 1 {
		t.Fatalf("count = %d, want 1", c.Count())
	}

	// A corrupt numeric cell must be a labelled error, not a silent zero.
	cases := []struct {
		name, row, want string
	}{
		{"bad latency", "1.0,oops,0,0,0,0,40,false,true", "row 2 column latency_ms"},
		{"bad arrival", "NaN?,50,0,0,0,0,40,false,true", "row 2 column arrival_s"},
		{"bad failed", "1.0,50,0,0,0,0,40,maybe,true", "row 2 column failed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(header+tc.row+"\n"), msec(200))
			if err == nil {
				t.Fatalf("corrupt row accepted: %q", tc.row)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}

	// A second corrupt row is still labelled with its own line number.
	in := header + "1.0,50,0,0,0,0,40,false,true\n" + "2.0,50,0,bogus,0,0,40,false,true\n"
	if _, err := ReadCSV(strings.NewReader(in), msec(200)); err == nil ||
		!strings.Contains(err.Error(), "row 3 column queue_delay_ms") {
		t.Fatalf("error %v does not name row 3 column queue_delay_ms", err)
	}
}

// ReadCSV parses rows as it reads them, so a malformed number is reported
// even when a CSV syntax error follows it later in the file.
func TestReadCSVReportsFirstErrorInFileOrder(t *testing.T) {
	header := "arrival_s,latency_ms,batch_wait_ms,queue_delay_ms,interference_ms,cold_start_ms,min_exec_ms,failed,slo_ok\n"
	in := header + "1.0,oops,0,0,0,0,40,false,true\n" + "2.0,50,0,0,0,0,40,false,\"true\n"
	_, err := ReadCSV(strings.NewReader(in), msec(200))
	if err == nil || !strings.Contains(err.Error(), "row 2 column latency_ms") {
		t.Fatalf("error %v does not name row 2 column latency_ms", err)
	}
}
