package fastjson

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestAppendFloat pins the float renderer against encoding/json across the
// f/e format boundary cases.
func TestAppendFloat(t *testing.T) {
	for _, f := range []float64{
		0, 1, -1, 2.5, 0.125, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 3e21,
		-1e-9, 123456.789, 0.1, 1.0 / 3.0, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("json.Marshal(%g): %v", f, err)
		}
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%g) = %s, want %s", f, got, want)
		}
	}
}

// TestParseFloatExact: ParseFloat returns the bits strconv.ParseFloat
// returns, for short and 16–17 digit mantissas and exponent forms alike.
func TestParseFloatExact(t *testing.T) {
	for _, f := range []float64{0, 0.1 + 0.2, 2.0 / 3, 1.0 / 3, 0.07547169811320754, 123456789.12345678,
		1e21, 1e-7, 5e-324, math.MaxFloat64, 9007199254740993, -1.2345678901234567e-100} {
		s := string(AppendFloat(nil, f))
		for _, in := range []string{s, strings.ToUpper(s)} {
			got, end, ok := ParseFloat([]byte(in), 0)
			want, err := strconv.ParseFloat(in, 64)
			if err != nil || !ok || end != len(in) || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("ParseFloat(%q) = %v, %d, %v; want %v (%v)", in, got, end, ok, want, err)
			}
		}
	}
	for _, in := range []string{"1e400", "-", "1.", ".5", "01", "1e", "+1", "Inf", "0x1p3", "1_0"} {
		if _, end, ok := ParseFloat([]byte(in), 0); ok && end == len(in) {
			t.Errorf("ParseFloat(%q) accepted", in)
		}
	}
}

// FuzzScan: every primitive that claims a span claims one encoding/json
// accepts, and decodes it to the value json.Unmarshal gives.
func FuzzScan(f *testing.F) {
	for _, s := range []string{
		`0`, `-0`, `12`, `-7`, `007`, `123456789012345678`, `1234567890123456789`, `18446744073709551615`,
		`2.5`, `0.1`, `-0.125`, `1e-7`, `0.07547169811320754`, `1E400`, `"plain"`, `"esc\"aped"`, `"é"`,
		`true`, `false`, `null`, `[1,[2,{"a":"b"}]]`, `{"id":1,"release":2,"graph":{}}`, `{"a" : [ ] }`,
		`0.50`, `1e-7`, `{"a":"\"]"}`, `{"a":[}`, `[1 2]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if end, ok := SkipValue(data, 0); ok && !json.Valid(data[:end]) {
			t.Fatalf("SkipValue claimed %q, which encoding/json rejects", data[:end])
		}
		if v, end, ok := ParseInt(data, 0); ok {
			var want int64
			if err := json.Unmarshal(data[:end], &want); err != nil || v != want {
				t.Fatalf("ParseInt(%q) = %d; json.Unmarshal: %d, %v", data[:end], v, want, err)
			}
		}
		if v, end, ok := ParseUint(data, 0); ok {
			var want uint64
			if err := json.Unmarshal(data[:end], &want); err != nil || v != want {
				t.Fatalf("ParseUint(%q) = %d; json.Unmarshal: %d, %v", data[:end], v, want, err)
			}
		}
		for name, parse := range map[string]func([]byte, int) (float64, int, bool){"ParseDecimal": ParseDecimal, "ParseFloat": ParseFloat} {
			if v, end, ok := parse(data, 0); ok {
				var want float64
				if err := json.Unmarshal(data[:end], &want); err != nil || math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("%s(%q) = %v; json.Unmarshal: %v, %v", name, data[:end], v, want, err)
				}
			}
		}
		if s, end, ok := ParseString(data, 0); ok {
			var want string
			if err := json.Unmarshal(data[:end], &want); err != nil || string(s) != want {
				t.Fatalf("ParseString(%q) = %q; json.Unmarshal: %q, %v", data[:end], s, want, err)
			}
		}
		if v, end, ok := ParseBool(data, 0); ok {
			var want bool
			if err := json.Unmarshal(data[:end], &want); err != nil || v != want {
				t.Fatalf("ParseBool(%q) = %v; json.Unmarshal: %v, %v", data[:end], v, want, err)
			}
		}
		if v, end, ok := ParseFloat(data, 0); ok {
			want := string(AppendFloat(nil, v)) == string(data[:end])
			if got := CanonicalFloat(data[:end], v); got != want {
				t.Fatalf("CanonicalFloat(%q) = %v; AppendFloat writes %s", data[:end], got, AppendFloat(nil, v))
			}
		}
		checkStructure(t, data)
	})
}

// checkStructure holds SkipStructure to its promises on data: a value
// SkipValue delimits it delimits the same way; a span it delimits is exactly
// the value when valid, and a document with it inside is valid if and only
// if the span is; plain is RawPlain of the span.
func checkStructure(t *testing.T, data []byte) {
	t.Helper()
	end, plain, ok := SkipStructure(data, 0)
	if vend, vok := SkipValue(data, 0); vok && len(data) > 0 && (data[0] == '{' || data[0] == '[') {
		if !ok || end != vend {
			t.Fatalf("SkipStructure(%q) = %d, %v; SkipValue ends at %d", data, end, ok, vend)
		}
	}
	if !ok {
		return
	}
	span := data[:end]
	if plain != RawPlain(span) {
		t.Fatalf("SkipStructure(%q) plain=%v; RawPlain says %v", span, plain, !plain)
	}
	valid := json.Valid(span)
	if vend, vok := SkipValue(span, 0); valid && (!vok || vend != end) {
		t.Fatalf("SkipStructure delimited %q, which is valid, but SkipValue ends at %d (%v)", span, vend, vok)
	}
	doc := append(append([]byte(`{"a":[0,`), span...), `],"b":1}`...)
	if json.Valid(doc) != valid {
		t.Fatalf("SkipStructure delimited %q (valid %v); inside a document it is valid %v", span, valid, !valid)
	}
}

// TestSkipStructure: the scan delimits objects and arrays by quotes,
// escapes and brackets alone, and reports plainness.
func TestSkipStructure(t *testing.T) {
	for _, tc := range []struct {
		in    string
		end   int
		plain bool
		ok    bool
	}{
		{`{}`, 2, true, true},
		{`[1,[2,{"a":"]}"}]]x`, 18, true, true},
		{`{"a":"\"}"}`, 11, true, true},
		{`{"a":"\\"}}`, 10, true, true},
		{`{"a":"x y"}`, 11, false, true},
		{`{"a":"<"}`, 9, false, true},
		{`{"a":1, "b":2}`, 14, false, true},
		{`{"a":"é"}`, 10, false, true},
		{`{"a":01,,}`, 10, true, true}, // delimited, not validated
		{`{]`, 2, true, true},
		{`{"a":[}`, 7, false, false},
		{`{"a":"}`, 7, false, false},
		{`"a"`, 0, false, false},
		{`1`, 0, false, false},
		{``, 0, false, false},
		{strings.Repeat("[", 64) + strings.Repeat("]", 64), 128, true, true},
		{strings.Repeat("[", 65) + strings.Repeat("]", 65), 64, false, false},
	} {
		end, plain, ok := SkipStructure([]byte(tc.in), 0)
		if ok != tc.ok || ok && (end != tc.end || plain != tc.plain) {
			t.Errorf("SkipStructure(%q) = %d, %v, %v; want %d, %v, %v", tc.in, end, plain, ok, tc.end, tc.plain, tc.ok)
		}
	}
}

// TestCanonicalFloat: a number is canonical exactly when AppendFloat writes
// it back byte for byte.
func TestCanonicalFloat(t *testing.T) {
	for in, want := range map[string]bool{
		"0": true, "-0": true, "1": true, "2.5": true, "0.000001": true, "123456789012345": true,
		"0.2777777777777778": true, "0.30000000000000004": true, "1e+21": true, "1e-7": true,
		"0.0": false, "2.50": false, "1.0": false, "0.0000001": false, "1E-7": false, "1e21": false,
		"100e0": false, "0.27777777777777778": false, "1234567890123456": true, "12345678901234567": false,
	} {
		v, end, ok := ParseFloat([]byte(in), 0)
		if !ok || end != len(in) {
			t.Fatalf("ParseFloat(%q) refused", in)
		}
		if got := CanonicalFloat([]byte(in), v); got != want {
			t.Errorf("CanonicalFloat(%q) = %v, want %v (AppendFloat writes %s)", in, got, want, AppendFloat(nil, v))
		}
	}
}
