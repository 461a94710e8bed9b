package telemetry

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
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

// pow10 holds 10^0 through 10^19, the decimal-length thresholds of a uint64.
var pow10 = [...]uint64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// appendInt appends i in decimal, byte-identical to strconv.AppendInt(buf,
// i, 10). It sizes the number first and writes the digits in place, two at
// a time, instead of formatting into a scratch array and copying: a span
// line holds eleven integers, most of them nanosecond counts of seven or
// more digits.
func appendInt(buf []byte, i int64) []byte {
	u := uint64(i)
	if i < 0 {
		buf = append(buf, '-')
		u = -u
	}
	// Digits of u: log10 estimated from the bit length, then corrected.
	n := bits.Len64(u) * 1233 >> 12
	if n < len(pow10) && u >= pow10[n] {
		n++
	}
	n = max(n, 1)
	buf = slices.Grow(buf, n)
	end := len(buf) + n
	buf = buf[:end]
	d := buf[end-n : end]
	for j := n; u >= 100; {
		r := u % 100 * 2
		u /= 100
		j -= 2
		d[j], d[j+1] = digitPairs[r], digitPairs[r+1]
	}
	if u >= 10 {
		d[0], d[1] = digitPairs[u*2], digitPairs[u*2+1]
	} else {
		d[0] = byte('0' + u)
	}
	return buf
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

// appendSpanLine appends the span's JSONL line — the byte-identical
// counterpart of json.Encoder.Encode(toJSON(s)), including the trailing
// newline. Field order and the always-present fields match spanJSON.
func appendSpanLine(buf []byte, s *Span) []byte {
	buf = append(buf, `{"req":`...)
	buf = appendInt(buf, s.Req)
	buf = append(buf, `,"tenant":`...)
	buf = appendInt(buf, int64(s.Tenant))
	buf = append(buf, `,"node":`...)
	buf = appendInt(buf, int64(s.Node))
	buf = append(buf, `,"spec":`...)
	buf = appendJSONString(buf, s.Spec)
	buf = append(buf, `,"job":`...)
	buf = appendInt(buf, s.Job)
	buf = append(buf, `,"batch":`...)
	buf = appendInt(buf, int64(s.BatchSize))
	buf = append(buf, `,"mode":`...)
	buf = appendJSONString(buf, s.Mode)
	buf = append(buf, `,"failed":`...)
	buf = strconv.AppendBool(buf, s.Failed)
	buf = append(buf, `,"arrived_ns":`...)
	buf = appendInt(buf, int64(s.Arrived))
	buf = append(buf, `,"batch_wait_ns":`...)
	buf = appendInt(buf, int64(s.BatchWait()))
	buf = append(buf, `,"cold_ns":`...)
	buf = appendInt(buf, int64(s.ColdStart()))
	buf = append(buf, `,"queue_ns":`...)
	buf = appendInt(buf, int64(s.QueueDelay()))
	buf = append(buf, `,"exec_ns":`...)
	buf = appendInt(buf, int64(s.Exec()))
	buf = append(buf, `,"latency_ns":`...)
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
