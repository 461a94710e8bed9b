package metrics

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// csvHeader is the per-request export schema.
var csvHeader = []string{
	"arrival_s", "latency_ms", "batch_wait_ms", "queue_delay_ms",
	"interference_ms", "cold_start_ms", "min_exec_ms", "failed", "slo_ok",
}

// WriteCSV exports every request record for offline analysis (one row per
// request, times in seconds/milliseconds).
//
// Rows are encoded with strconv's append forms into one reused buffer
// instead of per-field FormatFloat strings through encoding/csv. Every field
// is a plain number or true/false — nothing encoding/csv would quote — and
// csv.Writer's default line ending is "\n", so the bytes are identical to
// the historical encoding/csv output.
func (c *Collector) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 128)
	for i, h := range csvHeader {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, h...)
	}
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	ms := func(b []byte, d time.Duration) []byte {
		return strconv.AppendFloat(b, float64(d)/float64(time.Millisecond), 'f', 3, 64)
	}
	var err error
	c.Each(func(r Record) {
		if err != nil {
			return
		}
		buf = buf[:0]
		buf = strconv.AppendFloat(buf, r.Arrival.Seconds(), 'f', 6, 64)
		buf = append(buf, ',')
		buf = ms(buf, r.Latency)
		buf = append(buf, ',')
		buf = ms(buf, r.BatchWait)
		buf = append(buf, ',')
		buf = ms(buf, r.QueueDelay)
		buf = append(buf, ',')
		buf = ms(buf, r.Interference)
		buf = append(buf, ',')
		buf = ms(buf, r.ColdStart)
		buf = append(buf, ',')
		buf = ms(buf, r.MinExec)
		buf = append(buf, ',')
		buf = strconv.AppendBool(buf, r.Failed)
		buf = append(buf, ',')
		buf = strconv.AppendBool(buf, !r.Failed && r.Latency <= c.SLO)
		buf = append(buf, '\n')
		_, err = bw.Write(buf)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses records previously written with WriteCSV into a collector
// with the given SLO (the slo_ok column is recomputed, not trusted). A
// malformed cell is an error naming the offending row and column, never a
// silently coerced zero. Rows are parsed as they are read, one reused row
// at a time, so the first error in file order is the one reported.
func ReadCSV(r io.Reader, slo time.Duration) (*Collector, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	c := NewCollector(slo)
	for i := 0; ; i++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		line := i + 1
		if i == 0 && len(row) > 0 && row[0] == csvHeader[0] {
			continue // header
		}
		if len(row) < 8 {
			return nil, fmt.Errorf("metrics: row %d has %d columns, want at least 8", line, len(row))
		}
		var rowErr error
		f := func(col int) float64 {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil && rowErr == nil {
				rowErr = fmt.Errorf("metrics: row %d column %s: %q is not a number",
					line, csvHeader[col], row[col])
			}
			return v
		}
		ms := func(col int) time.Duration {
			return time.Duration(f(col) * float64(time.Millisecond))
		}
		rec := Record{
			Arrival:      time.Duration(f(0) * float64(time.Second)),
			Latency:      ms(1),
			BatchWait:    ms(2),
			QueueDelay:   ms(3),
			Interference: ms(4),
			ColdStart:    ms(5),
			MinExec:      ms(6),
		}
		rec.Failed, err = strconv.ParseBool(row[7])
		if err != nil {
			return nil, fmt.Errorf("metrics: row %d column %s: %q is not a bool",
				line, csvHeader[7], row[7])
		}
		if rowErr != nil {
			return nil, rowErr
		}
		c.Add(rec)
	}
	return c, nil
}
