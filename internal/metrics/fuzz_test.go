package metrics

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzReadCSV throws arbitrary bytes at the request-record CSV parser: it
// must never panic, and anything it accepts must re-serialize stably —
// write(read(in)) is a fixed point of a second read/write cycle, with the
// record count preserved. (The first write may differ from the raw input —
// the parser tolerates a missing slo_ok column and re-normalizes number
// formatting — but after one normalization pass the representation is
// canonical.)
func FuzzReadCSV(f *testing.F) {
	f.Add("")
	f.Add("arrival_s,latency_ms,batch_wait_ms,queue_delay_ms,interference_ms,cold_start_ms,min_exec_ms,failed,slo_ok\n")
	f.Add("0.5,120,10,5,0,0,90,false,true\n")
	f.Add("not,a,valid,row\n")
	f.Add("1.0,50.5,0,0,0,300,40,true,false\n2.0,10,1,0,0,0,9,false,true\n")
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ReadCSV(strings.NewReader(in), 200*time.Millisecond)
		if err != nil {
			return
		}
		var w1 bytes.Buffer
		if err := c.WriteCSV(&w1); err != nil {
			t.Fatalf("accepted input failed to serialize: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(w1.Bytes()), 200*time.Millisecond)
		if err != nil {
			t.Fatalf("own output rejected: %v\noutput:\n%s", err, w1.String())
		}
		if back.Count() != c.Count() {
			t.Fatalf("round trip lost records: %d != %d", back.Count(), c.Count())
		}
		var w2 bytes.Buffer
		if err := back.WriteCSV(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("serialization not stable after one normalization pass:\n-- first --\n%s\n-- second --\n%s",
				w1.String(), w2.String())
		}
	})
}

// FuzzCollectorPercentile decodes arbitrary bytes into a list of percentile
// reads and a run of latencies, then checks every Percentile answer, in
// the order given, against the nearest rank of a sorted copy.
func FuzzCollectorPercentile(f *testing.F) {
	f.Add([]byte{2, 0x80, 0x00, 0xfd, 0x00, 5, 3, 3, 9, 1, 0, 7})
	f.Add([]byte{6, 0xff, 0xff, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x80, 0x00, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2})
	f.Add(append([]byte{3, 0x7f, 0x00, 0xfe, 0x00, 0x00, 0x01}, bytes.Repeat([]byte{9, 200, 17, 4}, 8)...))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		np := int(in[0]%8) + 1
		in = in[1:]
		var ps []float64
		for len(ps) < np && len(in) >= 2 {
			code := uint16(in[0])<<8 | uint16(in[1])
			in = in[2:]
			switch code {
			case 0xffff:
				ps = append(ps, math.NaN())
			case 0xfffe:
				ps = append(ps, math.Inf(1))
			case 0xfffd:
				ps = append(ps, math.Inf(-1))
			default:
				// -5 .. ~105: both clamped ends and everything between.
				ps = append(ps, float64(code)/0xfff0*110-5)
			}
		}
		c := NewCollector(time.Second)
		lats := make([]time.Duration, len(in))
		for i, b := range in {
			lats[i] = time.Duration(b)
			c.Add(Record{Latency: lats[i]})
		}
		slices.Sort(lats)
		for _, p := range ps {
			if got, want := c.Percentile(p), refPercentile(lats, p); got != want {
				t.Fatalf("P%v of %d latencies = %v, want %v", p, len(lats), got, want)
			}
		}
	})
}
