package metrics

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// randomRecords returns n deterministic records with spread-out latencies,
// some failures and arrivals over about a minute.
func randomRecords(seed int64, n int) []Record {
	r := rand.New(rand.NewSource(seed))
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Arrival:      time.Duration(r.Int63n(int64(60 * time.Second))),
			Latency:      time.Duration(r.Int63n(int64(400 * time.Millisecond))),
			BatchWait:    time.Duration(r.Int63n(int64(20 * time.Millisecond))),
			QueueDelay:   time.Duration(r.Int63n(int64(50 * time.Millisecond))),
			Interference: time.Duration(r.Int63n(int64(30 * time.Millisecond))),
			ColdStart:    time.Duration(r.Int63n(int64(5 * time.Millisecond))),
			MinExec:      time.Duration(r.Int63n(int64(80 * time.Millisecond))),
			Failed:       r.Intn(50) == 0,
		}
	}
	return out
}

// readers is every reader of a Collector, so that one can be compared with
// another or with the flat reference.
type readers interface {
	Each(func(Record))
	Records() []Record
	Count() int
	SLOCompliance() float64
	Violations() int
	Percentile(p float64) time.Duration
	Mean() time.Duration
	CDF(n int) []CDFPoint
	TailBreakdown(pLo, pHi float64) Breakdown
	GoodputRPS(from, to time.Duration) float64
	ArrivalRPS(from, to time.Duration) float64
	WriteCSV(w io.Writer) error
}

// assertSameReaders requires got to answer every reader exactly as want.
func assertSameReaders(t *testing.T, got, want readers) {
	t.Helper()
	var ge, we []Record
	got.Each(func(r Record) { ge = append(ge, r) })
	want.Each(func(r Record) { we = append(we, r) })
	if !reflect.DeepEqual(ge, we) {
		t.Fatalf("Each: %d records differ from a new collector's %d", len(ge), len(we))
	}
	if !reflect.DeepEqual(got.Records(), want.Records()) {
		t.Fatal("Records differ")
	}
	if got.Count() != want.Count() {
		t.Fatalf("Count %d, want %d", got.Count(), want.Count())
	}
	if got.SLOCompliance() != want.SLOCompliance() {
		t.Fatalf("SLOCompliance %v, want %v", got.SLOCompliance(), want.SLOCompliance())
	}
	if got.Violations() != want.Violations() {
		t.Fatalf("Violations %d, want %d", got.Violations(), want.Violations())
	}
	for _, p := range []float64{0.1, 1, 50, 90, 99, 99.9, 100} {
		if got.Percentile(p) != want.Percentile(p) {
			t.Fatalf("P%v %v, want %v", p, got.Percentile(p), want.Percentile(p))
		}
	}
	if got.Mean() != want.Mean() {
		t.Fatalf("Mean %v, want %v", got.Mean(), want.Mean())
	}
	if !reflect.DeepEqual(got.CDF(60), want.CDF(60)) {
		t.Fatal("CDF differs")
	}
	if got.TailBreakdown(99, 99.9) != want.TailBreakdown(99, 99.9) {
		t.Fatalf("TailBreakdown %+v, want %+v", got.TailBreakdown(99, 99.9), want.TailBreakdown(99, 99.9))
	}
	for _, w := range [][2]time.Duration{{10 * time.Second, 40 * time.Second}, {-1 << 62, 1 << 62}} {
		from, to := w[0], w[1]
		if got.GoodputRPS(from, to) != want.GoodputRPS(from, to) {
			t.Fatalf("GoodputRPS%v %v, want %v", w, got.GoodputRPS(from, to), want.GoodputRPS(from, to))
		}
		if got.ArrivalRPS(from, to) != want.ArrivalRPS(from, to) {
			t.Fatalf("ArrivalRPS%v %v, want %v", w, got.ArrivalRPS(from, to), want.ArrivalRPS(from, to))
		}
	}
	var gb, wb bytes.Buffer
	if err := got.WriteCSV(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteCSV(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatal("WriteCSV bytes differ")
	}
}

// A Reset collector refilled with fewer records, then with more (past the
// chunks it kept), answers every reader as a new collector and the flat
// reference fed the same records would. The sizes straddle each chunk
// boundary up to chunkMax and beyond; the last fills are job-grouped, shorter
// and then longer than the fills before them.
func TestCollectorResetMatchesNew(t *testing.T) {
	c := NewCollector(msec(200))
	fills := []struct {
		recs []Record
		slo  time.Duration
	}{
		{randomRecords(1, 20000), msec(200)}, // past 256, 512, ... 8192 and two chunkMax chunks
		{randomRecords(2, 300), msec(150)},   // fewer: one kept chunk and a bit of the next
		{randomRecords(3, 0), msec(250)},     // empty
		{randomRecords(4, 511), msec(100)},
		{randomRecords(5, 30000), msec(180)}, // more than the first fill: kept chunks, then new ones
		{randomRecords(6, 8192+256), msec(220)},
		{jobRecords(7, 300), msec(200)},
		{jobRecords(8, 40000), msec(150)},
		{nearMatchRecords(9, 8192+256), msec(220)},
	}
	for i, f := range fills {
		if i > 0 {
			c.Reset(f.slo)
		} else {
			c.SLO = f.slo
		}
		want, flat := NewCollector(f.slo), newFlatCollector(f.slo)
		for _, r := range f.recs {
			c.Add(r)
			want.Add(r)
			flat.Add(r)
		}
		assertSameReaders(t, c, want)
		assertSameReaders(t, c, flat)
	}
}

// A Reset between a Percentile call and the refill must not serve the
// previous run's latencies.
func TestCollectorResetInvalidatesSort(t *testing.T) {
	c := NewCollector(msec(200))
	c.Add(Record{Latency: msec(500)})
	_ = c.Percentile(99)
	c.Reset(msec(200))
	c.Add(Record{Latency: msec(10)})
	if got := c.Percentile(100); got != msec(10) {
		t.Fatalf("stale sort after Reset: P100 = %v, want 10ms", got)
	}
}

// Once a collector has held a run, Reset plus a refill of the same size plus
// a Percentile read allocates nothing: the chunks and the latency buffer are
// reused.
func TestCollectorResetAllocFree(t *testing.T) {
	recs := randomRecords(1, 20000)
	c := NewCollector(msec(200))
	for _, r := range recs {
		c.Add(r)
	}
	_ = c.Percentile(99)
	allocs := testing.AllocsPerRun(5, func() {
		c.Reset(msec(200))
		for _, r := range recs {
			c.Add(r)
		}
		_ = c.Percentile(99)
	})
	if allocs != 0 {
		t.Fatalf("Reset+refill+Percentile allocates %v times per run, want 0", allocs)
	}
}
