package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// TestAppendEncodersMatchEncodingJSON pins the hand-rolled span and event
// encoders to encoding/json itself: for a gauntlet of spans and events —
// adversarial strings (HTML metacharacters, control bytes, invalid UTF-8,
// U+2028/U+2029), extreme and subnormal floats, zero and negative
// identifiers — the bytes must be identical to what a json.Encoder produced
// historically. Every span is encoded twice, by a fresh spanEncoder and by
// one that encoded all the spans before it, and sequences that change one
// memoized field at a time check that no stale run survives a change.
func TestAppendEncodersMatchEncodingJSON(t *testing.T) {
	nastyStrings := []string{
		"",
		"spatial",
		"g4dn.xlarge",
		"a<b>&c",
		"quote\"back\\slash",
		"newline\ntab\tcr\r",
		"ctrl\x00\x01\x1f",
		"bad utf8 \xff\xfe tail",
		"line sep \u2028 and \u2029 end",
		"mixed <&> \x07 ünïcödé 日本語",
		"trailing backslash\\",
	}
	floats := []float64{
		0, 1, -1, 0.5, 123.456, 1e-7, -1e-7, 9.999e-7, 1e-6, 1e20, 1e21,
		-3.25e22, 5e-324, math.MaxFloat64, 0.1 + 0.2, 1234567.891,
	}

	var got []byte
	var want bytes.Buffer
	enc := json.NewEncoder(&want)

	checkEvent := func(e Event) {
		t.Helper()
		want.Reset()
		if err := enc.Encode(eventJSON{
			AtNs: int64(e.At), Kind: e.Kind.String(), Req: e.Req, Job: e.Job,
			Node: e.Node, Tenant: e.Tenant, Spec: e.Spec, N: e.N,
			Value: e.Value, Detail: e.Detail,
		}); err != nil {
			t.Fatalf("encoding/json: %v", err)
		}
		got = appendEventLine(got[:0], e)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("event %+v:\nappend: %q\n  json: %q", e, got, want.Bytes())
		}
	}
	var memo spanEncoder // carries its runs from span to span
	checkSpan := func(s *Span) {
		t.Helper()
		want.Reset()
		if err := enc.Encode(toJSON(s)); err != nil {
			t.Fatalf("encoding/json: %v", err)
		}
		var fresh spanEncoder
		got = fresh.appendLine(got[:0], s, s.Tenant)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("span %+v:\nappend: %q\n  json: %q", s, got, want.Bytes())
		}
		got = memo.appendLine(got[:0], s, s.Tenant)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("span %+v after others:\nappend: %q\n  json: %q", s, got, want.Bytes())
		}
	}

	kinds := []Kind{Arrived, Dispatched, Sample, NodeFailed, HWSwitch, Cloned, CloneCancelled, NodeRevoked}
	for i, detail := range nastyStrings {
		for j, v := range floats {
			e := Event{
				At: time.Duration(i*j) * time.Millisecond, Kind: kinds[(i+j)%len(kinds)],
				Req: int64(i - 5), Job: int64(j - 3), Node: i - 1, Tenant: j - 2,
				Spec: nastyStrings[(i+1)%len(nastyStrings)], N: i - 4, Value: v,
				Detail: detail,
			}
			checkEvent(e)
		}
	}
	// The all-zero event exercises every omitempty branch at once.
	checkEvent(Event{})

	for i, spec := range nastyStrings {
		s := new(Span)
		s.Reset(int64(i-2), i-1)
		s.Spec = spec
		s.Mode = nastyStrings[(i+3)%len(nastyStrings)]
		s.Node = i - 3
		s.Job = int64(i)
		s.BatchSize = i * 7
		s.Failed = i%2 == 0
		// Exercise every combination of the omitempty redundancy counters.
		s.Clones = i % 3
		s.Hedged = i%4 == 1
		s.Cancelled = (i + 1) % 2
		if i%3 != 0 {
			s.Arrived = time.Duration(i) * time.Second
			s.Dispatched = s.Arrived + time.Millisecond
			s.Queued = s.Dispatched + 2*time.Millisecond
			s.ExecStart = s.Queued + 3*time.Millisecond
			s.ExecEnd = s.ExecStart + 40*time.Millisecond
			s.Completed = s.ExecEnd
		}
		checkSpan(s)
	}
	var fresh Span
	fresh.Reset(0, 0)
	checkSpan(&fresh)

	// Spans of one job differ only in Req and arrival; around a base span,
	// change each field the memoized runs encode, one at a time, returning
	// to the base in between.
	base := new(Span)
	base.Reset(100, 1)
	base.Node, base.Spec, base.Job, base.BatchSize, base.Mode = 2, "g4dn.xlarge", 40, 8, "spatial"
	base.Arrived, base.Batched = 5*time.Second, 5*time.Second
	base.Dispatched = base.Arrived + 3*time.Millisecond
	base.Queued = base.Dispatched + time.Millisecond
	base.ExecStart = base.Queued + 2*time.Millisecond
	base.ExecEnd = base.ExecStart + 30*time.Millisecond
	base.Completed = base.ExecEnd
	variants := []func(s *Span){
		func(s *Span) { s.Req++ },
		func(s *Span) { s.Arrived -= time.Millisecond },
		func(s *Span) { s.Tenant = 3 },
		func(s *Span) { s.Node = 0 },
		func(s *Span) { s.Spec = "c5.xlarge" },
		func(s *Span) { s.Spec = "a<b>&c" },
		func(s *Span) { s.Spec = "" },
		func(s *Span) { s.Job = 41 },
		func(s *Span) { s.BatchSize = 9 },
		func(s *Span) { s.Mode = "queued" },
		func(s *Span) { s.Mode = "" },
		func(s *Span) { s.Failed = true },
		func(s *Span) { s.Dispatched += time.Millisecond },     // batch wait and cold
		func(s *Span) { s.Queued += time.Millisecond },         // cold and queue
		func(s *Span) { s.ExecStart += time.Millisecond },      // queue and exec
		func(s *Span) { s.ExecEnd += time.Millisecond },        // exec
		func(s *Span) { s.Completed += time.Millisecond },      // latency
		func(s *Span) { s.Queued, s.ExecStart = Unset, Unset }, // stages never reached
		func(s *Span) { s.Completed = Unset },                  // still open
		func(s *Span) { s.Clones, s.Hedged, s.Cancelled = 2, true, 1 },
	}
	for _, change := range variants {
		checkSpan(base)
		v := *base
		change(&v)
		checkSpan(&v)
		// A second request of the changed job reuses the rebuilt runs.
		v.Req++
		v.Arrived -= time.Microsecond
		checkSpan(&v)
	}
	checkSpan(base)
}

// appendInt must format exactly as strconv.AppendInt: every power of ten and
// its neighbours, the int64 extremes, and a spread of random values, each
// appended after existing bytes.
func TestAppendIntMatchesStrconv(t *testing.T) {
	vals := []int64{0, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		// The 8-digit chunk boundaries, and their negatives.
		1e8 - 1, 1e8, 1e8 + 1, 1e16 - 1, 1e16, 1e16 + 1,
		-1e8 + 1, -1e8, -1e8 - 1, -1e16 + 1, -1e16, -1e16 - 1,
		1e8 * (1e8 + 1), 1e16 + 1e8, 1e16 + 1e8 - 1}
	for p := int64(1); ; p *= 10 {
		vals = append(vals, p-1, p, p+1, -p+1, -p, -p-1)
		if p > math.MaxInt64/10 {
			break
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 100000 {
		vals = append(vals, rng.Int63()>>rng.Intn(63), -rng.Int63()>>rng.Intn(63))
	}
	for _, v := range vals {
		got := appendInt([]byte("x"), v)
		want := strconv.AppendInt([]byte("x"), v, 10)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendInt(%d) = %q, want %q", v, got, want)
		}
	}
}
