// Package fastjson holds the one-pass JSON scanner and encoder primitives
// behind the reflection-free codecs of the wire and durable formats: the
// graph codec in dag, the job-record codec in workload, and the request,
// response, WAL and checkpoint codecs in serve.
//
// Each codec accepts only the canonical shape its own encoder writes and
// hands anything else to encoding/json, so the primitives never need to be
// a general JSON machine. They share one contract: a scan starts exactly at
// data[i] (no leading whitespace), returns the index after what it
// consumed, and reports ok=false when the bytes are invalid or merely off
// the shape the primitive can vouch for. ok=false is never an error: the
// caller falls back to encoding/json, which decides acceptance and owns the
// error text. SkipStructure is the one scan that does not validate: it only
// delimits, for a caller that validates the span itself.
package fastjson

import (
	"math"
	"strconv"
)

// SkipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func SkipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// HasLit reports whether data continues with lit at i, returning the index
// after it.
func HasLit(data []byte, i int, lit string) (int, bool) {
	if len(data)-i >= len(lit) && string(data[i:i+len(lit)]) == lit {
		return i + len(lit), true
	}
	return i, false
}

// ParseInt scans a plain integer — optional sign, up to 18 digits, no
// leading zeros, no fraction or exponent.
func ParseInt(data []byte, i int) (v int64, next int, ok bool) {
	neg := false
	if i < len(data) && data[i] == '-' {
		neg = true
		i++
	}
	start := i
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		v = v*10 + int64(data[i]-'0')
		i++
	}
	n := i - start
	if n == 0 || n > 18 {
		return 0, i, false
	}
	if n > 1 && data[start] == '0' {
		return 0, i, false // leading zero: encoding/json rejects it
	}
	if i < len(data) {
		switch data[i] {
		case '.', 'e', 'E':
			return 0, i, false // not an integer (or exponent form)
		}
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// ParseUint scans a plain non-negative integer up to math.MaxUint64, with
// ParseInt's rules otherwise.
func ParseUint(data []byte, i int) (uint64, int, bool) {
	start := i
	var v uint64
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		d := uint64(data[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, i, false // overflows uint64: json.Unmarshal rejects it
		}
		v = v*10 + d
		i++
	}
	if i == start || (i-start > 1 && data[start] == '0') {
		return 0, i, false
	}
	if i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return 0, i, false
	}
	return v, i, true
}

// pow10 holds exact float64 powers of ten for the fraction scaling below.
var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// ParseDecimal scans a decimal number without an exponent and with at most
// 15 significant digits: mantissa and fraction length are exact in
// int64/float64, so mant / 10^frac is the correctly rounded value — the
// same bits strconv.ParseFloat produces — and the scan never allocates.
// Anything longer or in exponent form reports ok=false.
func ParseDecimal(data []byte, i int) (v float64, next int, ok bool) {
	neg := false
	if i < len(data) && data[i] == '-' {
		neg = true
		i++
	}
	var mant int64
	digits := 0
	start := i
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		mant = mant*10 + int64(data[i]-'0')
		digits++
		i++
	}
	intDigits := i - start
	if intDigits == 0 {
		return 0, i, false
	}
	if intDigits > 1 && data[start] == '0' {
		return 0, i, false
	}
	frac := 0
	if i < len(data) && data[i] == '.' {
		i++
		fs := i
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			mant = mant*10 + int64(data[i]-'0')
			digits++
			i++
		}
		frac = i - fs
		if frac == 0 {
			return 0, i, false
		}
	}
	if digits > 15 || frac > 15 {
		return 0, i, false
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		return 0, i, false
	}
	v = float64(mant) / pow10[frac]
	if neg {
		v = -v
	}
	return v, i, true
}

// ParseFloat is ParseDecimal for any JSON number: past 15 significant
// digits or in exponent form it hands the validated span to
// strconv.ParseFloat, which is what encoding/json does, so the bits agree.
// Shortest-form float64s run to 17 digits, which is why encoded floats need
// this. Out-of-range values (json.Unmarshal rejects them) report ok=false.
func ParseFloat(data []byte, i int) (float64, int, bool) {
	if v, next, ok := ParseDecimal(data, i); ok {
		return v, next, true
	}
	end, ok := skipNumber(data, i)
	if !ok {
		return 0, i, false
	}
	v, err := strconv.ParseFloat(string(data[i:end]), 64)
	if err != nil {
		return 0, i, false
	}
	return v, end, true
}

// ParseBool scans true or false.
func ParseBool(data []byte, i int) (bool, int, bool) {
	if next, ok := HasLit(data, i, "true"); ok {
		return true, next, true
	}
	next, ok := HasLit(data, i, "false")
	return false, next, ok
}

// ParseString scans a plain string — printable ASCII, no escapes —
// returning a view into data. Escapes and non-ASCII report ok=false.
func ParseString(data []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(data) || data[i] != '"' {
		return nil, i, false
	}
	i++
	start := i
	for i < len(data) {
		c := data[i]
		if c == '"' {
			return data[start:i], i + 1, true
		}
		if c == '\\' || c < 0x20 || c > 0x7e {
			return nil, i, false
		}
		i++
	}
	return nil, i, false
}

// maxSkipDepth bounds SkipValue's nesting; deeper values (which no encoder
// here writes) fall back to encoding/json and its own limit.
const maxSkipDepth = 64

// SkipValue scans one JSON value of any kind and returns the index after
// it. It accepts only valid JSON, so a span it returns is a value
// json.Unmarshal would accept; ok=false means invalid or merely unvouched
// (nested deeper than 64).
func SkipValue(data []byte, i int) (int, bool) { return skipValue(data, i, 0) }

func skipValue(data []byte, i, depth int) (int, bool) {
	if i >= len(data) {
		return i, false
	}
	var ok bool
	switch data[i] {
	case '{', '[':
		if depth >= maxSkipDepth {
			return i, false
		}
		open := data[i]
		end := byte('}')
		if open == '[' {
			end = ']'
		}
		i = SkipSpace(data, i+1)
		if i < len(data) && data[i] == end {
			return i + 1, true
		}
		for {
			if open == '{' {
				if i, ok = skipString(data, i); !ok {
					return i, false
				}
				i = SkipSpace(data, i)
				if i >= len(data) || data[i] != ':' {
					return i, false
				}
				i = SkipSpace(data, i+1)
			}
			if i, ok = skipValue(data, i, depth+1); !ok {
				return i, false
			}
			i = SkipSpace(data, i)
			if i >= len(data) {
				return i, false
			}
			switch data[i] {
			case ',':
				i = SkipSpace(data, i+1)
			case end:
				return i + 1, true
			default:
				return i, false
			}
		}
	case '"':
		return skipString(data, i)
	case 't':
		return HasLit(data, i, "true")
	case 'f':
		return HasLit(data, i, "false")
	case 'n':
		return HasLit(data, i, "null")
	}
	return skipNumber(data, i)
}

// Byte classes of SkipStructure's scan: everything but quotes, escapes,
// brackets and the bytes RawPlain refuses is a byte it passes over.
const (
	scanPass = iota
	scanQuote
	scanEscape
	scanOpen
	scanClose
	scanNotPlain
)

var scanClass = func() (c [256]uint8) {
	for b := range c {
		if b <= 0x20 || b > 0x7e || b == '<' || b == '>' || b == '&' {
			c[b] = scanNotPlain
		}
	}
	c['"'], c['\\'] = scanQuote, scanEscape
	c['{'], c['['] = scanOpen, scanOpen
	c['}'], c[']'] = scanClose, scanClose
	return c
}()

// SkipStructure returns the index after the object or array that starts at
// data[i], found by tracking only string quotes, escapes and bracket depth:
// it validates nothing else, so the span is JSON only if a decoder that
// does validate accepts it. What it does promise is the span's extent: when
// the span is valid JSON, it is exactly the value at data[i], so a document
// with a valid prefix before it and a valid suffix after it is valid if and
// only if the span is. plain reports that every byte of the span passes
// RawPlain. ok=false when data[i] opens no object or array, the brackets do
// not close, or they nest deeper than SkipValue's bound.
func SkipStructure(data []byte, i int) (end int, plain, ok bool) {
	if i >= len(data) || scanClass[data[i]] != scanOpen {
		return i, false, false
	}
	plain = true
	depth := 0
	for ; i < len(data); i++ {
		switch scanClass[data[i]] {
		case scanOpen:
			if depth++; depth > maxSkipDepth {
				return i, false, false
			}
		case scanClose:
			if depth--; depth == 0 {
				return i + 1, plain, true
			}
		case scanQuote:
			for i++; i < len(data) && data[i] != '"'; i++ {
				c := scanClass[data[i]]
				if c == scanEscape && i+1 < len(data) {
					i++
					c = scanClass[data[i]]
				}
				if c == scanNotPlain {
					plain = false
				}
			}
		case scanNotPlain:
			plain = false
		}
	}
	return len(data), false, false
}

// skipString scans a string literal with any valid escapes. Bytes at or
// above 0x20 pass unexamined, as in encoding/json's scanner.
func skipString(data []byte, i int) (int, bool) {
	if i >= len(data) || data[i] != '"' {
		return i, false
	}
	for i++; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			return i + 1, true
		case c < 0x20:
			return i, false
		case c == '\\':
			i++
			if i >= len(data) {
				return i, false
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(data)-i < 5 {
					return i, false
				}
				for _, h := range data[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return i, false
					}
				}
				i += 4
			default:
				return i, false
			}
		}
	}
	return i, false
}

// skipNumber scans a number in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func skipNumber(data []byte, i int) (int, bool) {
	digits := func(i int) (int, bool) {
		start := i
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
		return i, i > start
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i >= len(data) {
		return i, false
	}
	var ok bool
	if data[i] == '0' {
		i++
	} else if i, ok = digits(i); !ok {
		return i, false
	}
	if i < len(data) && data[i] == '.' {
		if i, ok = digits(i + 1); !ok {
			return i, false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i, ok = digits(i); !ok {
			return i, false
		}
	}
	return i, true
}

// Plain reports whether s renders under encoding/json as itself — no
// escapes, including the HTML-safe < family — so an encoder may write it
// between quotes verbatim.
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// RawPlain reports whether a raw JSON value can be embedded in a
// json.Marshal output verbatim: Marshal compacts RawMessage fields (strips
// insignificant whitespace) and HTML-escapes <, >, and & even inside them,
// so any byte outside printable ASCII, any whitespace, or any escape-target
// character rules it out.
func RawPlain(raw []byte) bool {
	for _, c := range raw {
		if c <= 0x20 || c > 0x7e || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return len(raw) > 0
}

// AppendFloat appends f exactly as encoding/json renders a finite float64:
// 'f' form in [1e-6, 1e21), 'e' form outside it with the two-digit exponent
// shortened (e-09 → e-9). encoding/json refuses NaN and ±Inf; callers check
// for them first.
func AppendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// CanonicalFloat reports whether span, a number ParseFloat decoded to f, is
// byte for byte what AppendFloat writes for f: the shortest form, in the
// notation encoding/json picks for it. A decimal of at most 15 digits and
// no exponent needs no encoding to tell: no two such decimals parse to the
// same float64, so it is the shortest form unless it ends in a fraction
// zero, and AppendFloat writes it as it is unless it is below 1e-6.
func CanonicalFloat(span []byte, f float64) bool {
	digits, frac := 0, false
	for _, c := range span {
		switch {
		case c >= '0' && c <= '9':
			digits++
		case c == '.':
			frac = true
		case c != '-':
			digits = 16 // exponent form
		}
	}
	if digits <= 15 {
		return !(frac && span[len(span)-1] == '0') && (f == 0 || math.Abs(f) >= 1e-6)
	}
	var buf [32]byte
	return string(AppendFloat(buf[:0], f)) == string(span)
}

// SplitJobWire splits an instance-wire job record `{"id":N,"release":R…`
// into its id, its release, and the tail from the next byte to the end of
// the record, which is all of it that is not per-job. ok=false for any
// other prefix.
func SplitJobWire(raw []byte) (id, release int64, tail []byte, ok bool) {
	i, ok := HasLit(raw, 0, `{"id":`)
	if !ok {
		return 0, 0, nil, false
	}
	if id, i, ok = ParseInt(raw, i); !ok {
		return 0, 0, nil, false
	}
	if i, ok = HasLit(raw, i, `,"release":`); !ok {
		return 0, 0, nil, false
	}
	if release, i, ok = ParseInt(raw, i); !ok {
		return 0, 0, nil, false
	}
	return id, release, raw[i:], true
}
