package metrics

import (
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// jobRecords returns n records built the way the runner records a batch job:
// each job's 1–64 requests share its dispatch and completion instants and
// its queueing, interference, cold-start and solo times, and keep their own
// arrivals. About one job in twenty fails, and about one in ten is followed
// by an identical job.
func jobRecords(seed int64, n int) []Record {
	r := rand.New(rand.NewSource(seed))
	out := make([]Record, 0, n+64)
	var job []Record
	var now time.Duration
	for len(out) < n {
		if len(job) > 0 && r.Intn(10) == 0 {
			out = append(out, job...)
			continue
		}
		now += time.Duration(r.Int63n(int64(30 * time.Millisecond)))
		finish := now + time.Duration(r.Int63n(int64(300*time.Millisecond)))
		shared := Record{
			QueueDelay:   time.Duration(r.Int63n(int64(50 * time.Millisecond))),
			Interference: time.Duration(r.Int63n(int64(30 * time.Millisecond))),
			MinExec:      time.Duration(r.Int63n(int64(80 * time.Millisecond))),
			Failed:       r.Intn(20) == 0,
		}
		if r.Intn(8) == 0 {
			shared.ColdStart = time.Duration(r.Int63n(int64(5 * time.Second)))
		}
		arrival := now - time.Duration(r.Int63n(int64(25*time.Millisecond)))
		job = job[:0]
		for size := 1 + r.Intn(64); len(job) < size; {
			q := shared
			q.Arrival = arrival
			q.Latency = finish - arrival
			q.BatchWait = now - arrival
			job = append(job, q)
			arrival += time.Duration(r.Int63n(int64(time.Millisecond)))
		}
		out = append(out, job...)
	}
	return out[:n]
}

// nearMatchRecords returns n records, each of which matches the previous
// one's run on every shared field but one, taking the fields in turn. Every
// ninth joins the run as another request of the job (a new arrival with the
// same completion and dispatch instants), and every ninth repeats the
// previous record. Values lie near ±2^62 and the int64 limits, so
// Arrival+Latency and Arrival+BatchWait wrap.
func nearMatchRecords(seed int64, n int) []Record {
	r := rand.New(rand.NewSource(seed))
	edges := []time.Duration{0, 1, -1, 1 << 62, -1 << 62, 1<<62 - 1, -1<<62 + 1, math.MaxInt64, math.MinInt64}
	extreme := func() time.Duration {
		d := edges[r.Intn(len(edges))]
		if r.Intn(2) == 0 {
			d += time.Duration(r.Int63n(1000) - 500)
		}
		return d
	}
	nonzero := func() time.Duration {
		if d := extreme(); d != 0 {
			return d
		}
		return 1
	}
	prev := Record{extreme(), extreme(), extreme(), extreme(), extreme(), extreme(), extreme(), false}
	out := []Record{prev}
	for len(out) < n {
		q := prev
		switch len(out) % 9 {
		case 0: // completion instant
			q.Latency += nonzero()
		case 1: // dispatch instant
			q.BatchWait += nonzero()
		case 2:
			q.QueueDelay += nonzero()
		case 3:
			q.Interference += nonzero()
		case 4:
			q.ColdStart += nonzero()
		case 5:
			q.MinExec += nonzero()
		case 6:
			q.Failed = !q.Failed
		case 7: // another request of the job
			q.Arrival = extreme()
			q.Latency = prev.Arrival + prev.Latency - q.Arrival
			q.BatchWait = prev.Arrival + prev.BatchWait - q.Arrival
		}
		out = append(out, q)
		prev = q
	}
	return out
}

// sameRecord returns n copies of one record: a single run that the latency
// chunks split.
func sameRecord(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Arrival: time.Second, Latency: msec(120), BatchWait: msec(10), MinExec: msec(90)}
	}
	return out
}

// The Collector answers every reader exactly as the flat one-Record-per-
// request reference does, whatever its SLO: for singletons, for job-grouped
// runs, for records that differ from their run in one field only, and for
// one run longer than a chunk. TestCollectorResetMatchesNew checks refills.
func TestCollectorMatchesFlatReference(t *testing.T) {
	for _, s := range []struct {
		name string
		recs []Record
	}{
		{"singletons", randomRecords(1, 3000)},
		{"jobs", jobRecords(2, 20000)},
		{"near-match", nearMatchRecords(3, 2000)},
		{"one-run", sameRecord(20000)},
	} {
		t.Run(s.name, func(t *testing.T) {
			got, want := NewCollector(msec(200)), newFlatCollector(msec(200))
			for _, r := range s.recs {
				got.Add(r)
				want.Add(r)
			}
			for _, slo := range []time.Duration{msec(200), msec(50), -1 << 62, math.MaxInt64} {
				got.SLO, want.SLO = slo, slo
				assertSameReaders(t, got, want)
			}
		})
	}
}

// Once a collector has held a run of job-grouped records, Reset plus the
// same refill plus a Percentile read allocates nothing. 8192 records in jobs
// of 8 occupy at most 16 B of column capacity per record: 8 B of latency and
// an eighth of a 56 B run, 15 B, with no chunk left part-empty.
func TestCollectorGroupedRefillAllocFree(t *testing.T) {
	recs := make([]Record, 8192)
	for i := range recs {
		job := time.Duration(i / 8)
		recs[i] = Record{
			Arrival:   job*msec(10) + time.Duration(i%8)*time.Microsecond,
			Latency:   msec(100) - time.Duration(i%8)*time.Microsecond,
			BatchWait: msec(5) - time.Duration(i%8)*time.Microsecond,
			MinExec:   msec(80),
		}
	}
	c := NewCollector(msec(200))
	for _, r := range recs {
		c.Add(r)
	}
	capacity := 0
	for _, ch := range c.jobs.chunks {
		capacity += cap(ch) * int(unsafe.Sizeof(jobRun{}))
	}
	for _, ch := range c.lats.chunks {
		capacity += cap(ch) * int(unsafe.Sizeof(time.Duration(0)))
	}
	if per := float64(capacity) / float64(len(recs)); per > 16 {
		t.Errorf("%d records in jobs of 8 occupy %d B of column capacity, %.2f B each; want at most 16",
			len(recs), capacity, per)
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
		t.Fatalf("Reset+grouped refill+Percentile allocates %v times per run, want 0", allocs)
	}
}
