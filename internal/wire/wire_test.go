package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestAppendStringMatchesEncodingJSON: every string encodes to
// json.Marshal's bytes — HTML-significant characters, control bytes,
// the JavaScript line separators and invalid UTF-8 included.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "plain", "a<b>&c", `q"uote`, `back\slash`, "\b\f\n\r\t", "\x00\x1f\x7f",
		"naïve µ", "sep\u2028\u2029", "bad\xff\xfe", "trunc\xe2\x80", "\U0001F600", "\ufffd",
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rnd.Intn(12))
		for j := range b {
			// Mostly the edges of the ASCII and UTF-8 ranges.
			b[j] = []byte{0x00, 0x08, 0x1f, ' ', '"', '&', '<', '>', '\\', 'a', 0x7f, 0x80, 0xbf, 0xc3, 0xe2, 0xf0, 0xff}[rnd.Intn(17)]
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Fatalf("AppendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
}

// TestAppendFloatMatchesEncodingJSON: floats format as encoding/json
// formats them on both sides of its exponent cut-offs, and NaN and the
// infinities are refused as it refuses them.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 0.95, 12.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789e13,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3}
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		cases = append(cases, math.Float64frombits(rnd.Uint64()))
	}
	for _, f := range cases {
		want, wantErr := json.Marshal(f)
		got, err := AppendFloat(nil, f)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("AppendFloat(%v) error %v, encoding/json error %v", f, err, wantErr)
		}
		if err == nil && string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
}

// TestParserNumbers: the parser takes exactly the integer and float
// literals of the canonical subset, to the values encoding/json
// decodes, and reports false on the rest.
func TestParserNumbers(t *testing.T) {
	ints := map[string]bool{
		"0": true, "-0": true, "7": true, "-12": true, "9223372036854775807": true, "-9223372036854775808": true,
		"9223372036854775808": false, "-9223372036854775809": false, "12345678901234567890": false,
		"01": false, "-": false, "": false, "1.0": false, "1e3": false, "+1": false, " 42 ": true,
	}
	for lit, ok := range ints {
		p := NewParser([]byte(lit))
		v, got := p.Int64()
		got = got && p.Done()
		if got != ok {
			t.Errorf("Int64(%q) ok=%v, want %v", lit, got, ok)
			continue
		}
		var want int64
		if ok && (json.Unmarshal([]byte(lit), &want) != nil || v != want) {
			t.Errorf("Int64(%q) = %d, encoding/json decodes %d", lit, v, want)
		}
	}
	floats := map[string]bool{
		"0": true, "-0": true, "0.25": true, "12.5": true, "-3.75": true, "123456789.000000001": true,
		"1e3": false, "1.": false, ".5": false, "01.5": false, "-": false, "1e400": false,
	}
	for lit, ok := range floats {
		p := NewParser([]byte(lit))
		v, got := p.Float()
		got = got && p.Done()
		if got != ok {
			t.Errorf("Float(%q) ok=%v, want %v", lit, got, ok)
			continue
		}
		var want float64
		if ok && (json.Unmarshal([]byte(lit), &want) != nil || v != want || math.Signbit(v) != math.Signbit(want)) {
			t.Errorf("Float(%q) = %v, encoding/json decodes %v", lit, v, want)
		}
	}
}
