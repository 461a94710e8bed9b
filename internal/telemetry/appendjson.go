package telemetry

import (
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// Append-style JSONL encoders for the two hot export schemas (spans and
// events). Every exporter used to push values through encoding/json's
// reflection-driven Encoder, which allocates per line; these build the exact
// same bytes — field order, omitempty semantics, HTML escaping, float
// formatting, trailing newline — into a caller-reused buffer. The
// equivalence is pinned by TestAppendEncodersMatchEncodingJSON against
// encoding/json itself over adversarial inputs.

const hexDigits = "0123456789abcdef"

// digitPairs holds the two-digit decimal forms 00 through 99.
const digitPairs = "0001020304050607080910111213141516171819" +
	"2021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859" +
	"6061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// appendInt appends i in decimal, byte-identical to strconv.AppendInt(buf,
// i, 10). It splits the value into 8-digit chunks, so every division after
// the first is 32-bit, and writes each chunk without a digit loop: a span
// line's integers are mostly IDs and nanosecond counts of six to fourteen
// digits, one or two chunks each.
func appendInt(buf []byte, i int64) []byte {
	u := uint64(i)
	if i < 0 {
		buf = append(buf, '-')
		u = -u
	}
	if u < 1e8 {
		return appendUint32(buf, uint32(u))
	}
	hi, lo := u/1e8, uint32(u%1e8)
	if hi < 1e8 {
		buf = appendUint32(buf, uint32(hi))
	} else {
		buf = appendUint32(buf, uint32(hi/1e8))
		buf = append8Digits(buf, uint32(hi%1e8))
	}
	return append8Digits(buf, lo)
}

// appendUint32 appends v < 1e8 in decimal without leading zeros: as two
// 4-digit halves, the high one only when nonzero.
func appendUint32(buf []byte, v uint32) []byte {
	if v < 10000 {
		return append4Digits(buf, v)
	}
	hi, lo := v/10000, v%10000
	buf = append4Digits(buf, hi)
	c, d := lo/100*2, lo%100*2
	return append(buf, digitPairs[c], digitPairs[c+1], digitPairs[d], digitPairs[d+1])
}

// append4Digits appends v < 10000 without leading zeros.
func append4Digits(buf []byte, v uint32) []byte {
	switch {
	case v < 10:
		return append(buf, byte('0'+v))
	case v < 100:
		return append(buf, digitPairs[v*2], digitPairs[v*2+1])
	case v < 1000:
		r := v % 100 * 2
		return append(buf, byte('0'+v/100), digitPairs[r], digitPairs[r+1])
	}
	a, r := v/100*2, v%100*2
	return append(buf, digitPairs[a], digitPairs[a+1], digitPairs[r], digitPairs[r+1])
}

// append8Digits appends v < 1e8 as exactly eight digits, zero-padded.
func append8Digits(buf []byte, v uint32) []byte {
	hi, lo := v/10000, v%10000
	a, b := hi/100*2, hi%100*2
	c, d := lo/100*2, lo%100*2
	return append(buf,
		digitPairs[a], digitPairs[a+1], digitPairs[b], digitPairs[b+1],
		digitPairs[c], digitPairs[c+1], digitPairs[d], digitPairs[d+1])
}

// appendJSONString appends s as a JSON string exactly as encoding/json does
// with its default (HTML-escaping) encoder: quotes and backslashes escaped,
// \n \r \t named, other control characters as \u00xx, '<', '>', '&' as
// </>/&, U+2028/U+2029 escaped, and invalid UTF-8 bytes
// replaced with �.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\', '"':
				buf = append(buf, '\\', b)
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// appendJSONFloat appends f exactly as encoding/json's floatEncoder does:
// shortest representation, 'f' format for magnitudes in [1e-6, 1e21), 'e'
// otherwise with the exponent's leading zero trimmed (e-09 -> e-9).
// encoding/json rejects NaN and infinities with an error; telemetry values
// are finite by construction, so this encoder has no error path.
func appendJSONFloat(buf []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

// spanEncoder appends span JSONL lines, each the byte-identical counterpart
// of json.Encoder.Encode(toJSON(s)) including the trailing newline; field
// order and the always-present fields match spanJSON. It is the one span
// encoder of every exporter, each holding its own.
//
// The requests of a batch job share everything but their ID and arrival,
// and the runtime hands their spans over back to back, so the encoder keeps
// the three runs of a line that job-level fields decide, each rebuilt only
// when a field it encodes differs from the last span's:
//   - node: "tenant" through the "job" key — tenant, node and spec, which
//     change only when the lane's serving node does;
//   - job: the job ID through the "arrived_ns" key — job, batch size, mode
//     and failure;
//   - tail: "cold_ns" through the "latency_ns" key — the cold, queue and
//     exec gaps, which repeat across jobs of one batch size.
//
// Most jobs carry one or two requests, so the job run is rebuilt on about
// every other line; the node run is kept apart so that its rebuilds stay
// rare. A line costs four integers instead of eleven, plus the job run's
// when it starts a job.
type spanEncoder struct {
	node    []byte // encodes nodeKey; empty until the first line
	nodeKey nodeRun
	job     []byte // encodes jobKey; empty until the first line
	jobKey  jobRun
	tail    []byte // encodes tailKey; empty until the first line
	tailKey [3]time.Duration

	mode quoted // the last Mode string and its JSON encoding
}

type nodeRun struct {
	tenant, node int
	spec         string
}

type jobRun struct {
	job    int64
	size   int
	mode   string
	failed bool
}

// quoted caches one string's JSON encoding.
type quoted struct {
	s   string
	enc []byte // appendJSONString of s; empty until first set
}

func (q *quoted) of(s string) []byte {
	if len(q.enc) == 0 || s != q.s {
		q.s, q.enc = s, appendJSONString(q.enc[:0], s)
	}
	return q.enc
}

// appendLine appends s's JSONL line with tenant in place of s.Tenant (a
// multi-lane writer stamps the lane without touching the runtime's span).
func (e *spanEncoder) appendLine(buf []byte, s *Span, tenant int) []byte {
	buf = append(buf, `{"req":`...)
	buf = appendInt(buf, s.Req)
	if k := (nodeRun{tenant, s.Node, s.Spec}); len(e.node) == 0 || k != e.nodeKey {
		e.nodeKey, e.node = k, appendNodeRun(e.node[:0], k)
	}
	buf = append(buf, e.node...)
	if k := (jobRun{s.Job, s.BatchSize, s.Mode, s.Failed}); len(e.job) == 0 || k != e.jobKey {
		e.jobKey, e.job = k, e.appendJobRun(e.job[:0], k)
	}
	buf = append(buf, e.job...)
	buf = appendInt(buf, int64(s.Arrived))
	buf = append(buf, `,"batch_wait_ns":`...)
	buf = appendInt(buf, int64(s.BatchWait()))
	if k := [3]time.Duration{s.ColdStart(), s.QueueDelay(), s.Exec()}; len(e.tail) == 0 || k != e.tailKey {
		e.tailKey, e.tail = k, appendTailRun(e.tail[:0], k)
	}
	buf = append(buf, e.tail...)
	buf = appendInt(buf, int64(s.Latency()))
	if s.Clones != 0 {
		buf = append(buf, `,"clones":`...)
		buf = appendInt(buf, int64(s.Clones))
	}
	if s.Hedged {
		buf = append(buf, `,"hedged":true`...)
	}
	if s.Cancelled != 0 {
		buf = append(buf, `,"cancelled":`...)
		buf = appendInt(buf, int64(s.Cancelled))
	}
	return append(buf, '}', '\n')
}

func appendNodeRun(buf []byte, k nodeRun) []byte {
	buf = append(buf, `,"tenant":`...)
	buf = appendInt(buf, int64(k.tenant))
	buf = append(buf, `,"node":`...)
	buf = appendInt(buf, int64(k.node))
	buf = append(buf, `,"spec":`...)
	buf = appendJSONString(buf, k.spec)
	return append(buf, `,"job":`...)
}

func (e *spanEncoder) appendJobRun(buf []byte, k jobRun) []byte {
	buf = appendInt(buf, k.job)
	buf = append(buf, `,"batch":`...)
	buf = appendInt(buf, int64(k.size))
	buf = append(buf, `,"mode":`...)
	buf = append(buf, e.mode.of(k.mode)...)
	buf = append(buf, `,"failed":`...)
	buf = strconv.AppendBool(buf, k.failed)
	return append(buf, `,"arrived_ns":`...)
}

func appendTailRun(buf []byte, k [3]time.Duration) []byte {
	buf = append(buf, `,"cold_ns":`...)
	buf = appendInt(buf, int64(k[0]))
	buf = append(buf, `,"queue_ns":`...)
	buf = appendInt(buf, int64(k[1]))
	buf = append(buf, `,"exec_ns":`...)
	buf = appendInt(buf, int64(k[2]))
	return append(buf, `,"latency_ns":`...)
}

// appendEventLine appends the event's JSONL line — the byte-identical
// counterpart of json.Encoder.Encode(eventJSON{...}), including omitempty
// semantics (zero-valued job/tenant/spec/n/value/detail fields are omitted)
// and the trailing newline.
func appendEventLine(buf []byte, e Event) []byte {
	buf = append(buf, `{"at_ns":`...)
	buf = appendInt(buf, int64(e.At))
	buf = append(buf, `,"kind":`...)
	buf = appendJSONString(buf, e.Kind.String())
	buf = append(buf, `,"req":`...)
	buf = appendInt(buf, e.Req)
	if e.Job != 0 {
		buf = append(buf, `,"job":`...)
		buf = appendInt(buf, e.Job)
	}
	buf = append(buf, `,"node":`...)
	buf = appendInt(buf, int64(e.Node))
	if e.Tenant != 0 {
		buf = append(buf, `,"tenant":`...)
		buf = appendInt(buf, int64(e.Tenant))
	}
	if e.Spec != "" {
		buf = append(buf, `,"spec":`...)
		buf = appendJSONString(buf, e.Spec)
	}
	if e.N != 0 {
		buf = append(buf, `,"n":`...)
		buf = appendInt(buf, int64(e.N))
	}
	if e.Value != 0 {
		buf = append(buf, `,"value":`...)
		buf = appendJSONFloat(buf, e.Value)
	}
	if e.Detail != "" {
		buf = append(buf, `,"detail":`...)
		buf = appendJSONString(buf, e.Detail)
	}
	return append(buf, '}', '\n')
}
