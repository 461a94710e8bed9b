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

// TestAppendEncodersMatchEncodingJSON pins the hand-rolled appendSpanLine /
// appendEventLine encoders to encoding/json itself: for a gauntlet of spans
// and events — adversarial strings (HTML metacharacters, control bytes,
// invalid UTF-8, U+2028/U+2029), extreme and subnormal floats, zero and
// negative identifiers — the bytes must be identical to what a
// json.Encoder produced historically.
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
	checkSpan := func(s *Span) {
		t.Helper()
		want.Reset()
		if err := enc.Encode(toJSON(s)); err != nil {
			t.Fatalf("encoding/json: %v", err)
		}
		got = appendSpanLine(got[:0], s)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("span %+v:\nappend: %q\n  json: %q", s, got, want.Bytes())
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
}

// appendInt must format exactly as strconv.AppendInt: every power of ten and
// its neighbours, the int64 extremes, and a spread of random values, each
// appended after existing bytes.
func TestAppendIntMatchesStrconv(t *testing.T) {
	vals := []int64{0, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for p := int64(1); ; p *= 10 {
		vals = append(vals, p-1, p, p+1, -p+1, -p, -p-1)
		if p > math.MaxInt64/10 {
			break
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
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
