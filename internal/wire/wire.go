// Package wire is the hand-written JSON layer under the v1 wire schema:
// append-style encoders for the strings and numbers encoding/json
// writes, and Parser, a cursor over the canonical subset of JSON that
// those encoders emit. The graph (internal/dfg), the datapath
// (internal/datapath) and the Problem and Solution envelopes (package
// mwl) build their codecs from it.
//
// The encoders are byte-identical to encoding/json's (HTML-safe
// escaping, ES6 float formatting). The parser accepts a strict subset
// of JSON and reports false, never an error, on anything outside it:
// every decoder built on it falls back to encoding/json then, so
// encoding/json keeps the last word on every unusual or malformed
// document.
package wire

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// ---- encoding ----

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string literal, escaped exactly as
// encoding/json escapes it: HTML-significant characters, control bytes,
// U+2028/U+2029 and invalid UTF-8 included.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// ErrUnsupportedFloat reports a NaN or infinite float, which JSON cannot
// represent.
var ErrUnsupportedFloat = errors.New("wire: unsupported float value (NaN or ±Inf)")

// AppendFloat appends f as encoding/json formats a float64: the
// shortest decimal that round-trips, in exponent form only below 1e-6
// or from 1e21 in magnitude.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, ErrUnsupportedFloat
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as in encoding/json.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// Key appends the key of an object member, a plain ASCII name, and its
// colon. open is the index in b of the object's opening brace: every
// member but the first is preceded by a comma.
func Key(b []byte, open int, key string) []byte {
	if len(b) > open+1 {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

// ---- decoding ----

// Parser is a cursor over one document in the canonical subset of JSON:
//
//   - strings of bytes 0x20–0x7f without escapes;
//   - integer literals, -?(0|[1-9][0-9]*), that fit the target type;
//   - floats without an exponent;
//   - true, false and null where the caller expects them;
//   - JSON whitespace anywhere between tokens.
//
// Every method skips leading whitespace and reports false, consuming an
// arbitrary prefix, when the input does not continue as expected.
// Callers decide which keys and values an object admits; the usual rule
// is exact keys, each at most once (Members), and anything else
// reported false.
type Parser struct {
	data []byte
	pos  int
	doc  string // string copy of data, made by the first Name
}

// NewParser returns a parser at the start of data.
func NewParser(data []byte) Parser { return Parser{data: data} }

// Rest returns the input not yet consumed.
func (p *Parser) Rest() []byte { return p.data[p.pos:] }

// ws skips whitespace.
func (p *Parser) ws() {
	data, i := p.data, p.pos
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	p.pos = i
}

// Done reports whether nothing but whitespace is left.
func (p *Parser) Done() bool {
	p.ws()
	return p.pos == len(p.data)
}

// Eat consumes the byte c.
func (p *Parser) Eat(c byte) bool {
	p.ws()
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// next consumes the separator after a member or element: a comma
// (more=true) or the closing byte (more=false).
func (p *Parser) next(closing byte) (more, ok bool) {
	if p.Eat(',') {
		return true, true
	}
	return false, p.Eat(closing)
}

// Object consumes an object, calling member with each key once the
// key's colon is consumed; member consumes the value.
func (p *Parser) Object(member func(key []byte) bool) bool {
	if !p.Eat('{') {
		return false
	}
	for more := !p.Eat('}'); more; {
		key, ok := p.Str()
		if !ok || !p.Eat(':') || !member(key) {
			return false
		}
		if more, ok = p.next('}'); !ok {
			return false
		}
	}
	return true
}

// Members consumes an object under the usual rule of the canonical
// subset: exact keys, each at most once. member consumes the value of
// key and returns the key's bit, or 0 when the key is unknown or its
// value lies outside the subset (see Bit); a repeated bit reports
// false.
func (p *Parser) Members(member func(key []byte) uint16) bool {
	var seen uint16
	return p.Object(func(key []byte) bool {
		bit := member(key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
}

// Bit is what a Members callback returns for a value that was, or was
// not, consumed: bit, or 0.
func Bit(bit uint16, ok bool) uint16 {
	if !ok {
		return 0
	}
	return bit
}

// Array consumes an array, calling elem to consume each element.
func (p *Parser) Array(elem func() bool) bool {
	if !p.Eat('[') {
		return false
	}
	for more := !p.Eat(']'); more; {
		if !elem() {
			return false
		}
		var ok bool
		if more, ok = p.next(']'); !ok {
			return false
		}
	}
	return true
}

// literal consumes the bare word w.
func (p *Parser) literal(w string) bool {
	p.ws()
	if len(p.data)-p.pos >= len(w) && string(p.data[p.pos:p.pos+len(w)]) == w {
		p.pos += len(w)
		return true
	}
	return false
}

// Null consumes null.
func (p *Parser) Null() bool { return p.literal("null") }

// Bool consumes true or false.
func (p *Parser) Bool() (v, ok bool) {
	if p.literal("true") {
		return true, true
	}
	return false, p.literal("false")
}

// Str consumes a string of bytes 0x20–0x7f without escapes and returns
// its contents, which alias the input.
func (p *Parser) Str() ([]byte, bool) {
	if !p.Eat('"') {
		return nil, false
	}
	data, start := p.data, p.pos
	for i := start; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			p.pos = i + 1
			return data[start:i], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// Text consumes a string as Str does and returns a copy.
func (p *Parser) Text() (string, bool) {
	b, ok := p.Str()
	return string(b), ok
}

// Name consumes a string as Str does. Non-empty names share one string
// copy of the whole input, made at the first, so a document of many
// short names costs one allocation for all of them.
func (p *Parser) Name() (string, bool) {
	b, ok := p.Str()
	if !ok || len(b) == 0 {
		return "", ok
	}
	if p.doc == "" {
		p.doc = string(p.data)
	}
	end := p.pos - 1 // the closing quote
	return p.doc[end-len(b) : end], true
}

// digits consumes -?(0|[1-9][0-9]*) and returns its magnitude, which
// must have at most 19 digits: any int64 does, and any such magnitude
// fits a uint64. A fraction or exponent is left unconsumed.
func (p *Parser) digits() (u uint64, neg, ok bool) {
	p.ws()
	neg = p.pos < len(p.data) && p.data[p.pos] == '-'
	if neg {
		p.pos++
	}
	data, start := p.data, p.pos
	i := start
	for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
		u = u*10 + uint64(data[i]-'0')
	}
	p.pos = i
	if n := i - start; n == 0 || n > 19 || (n > 1 && data[start] == '0') {
		return 0, false, false
	}
	return u, neg, true
}

// Int64 consumes an integer literal that fits an int64. A fraction or
// exponent is left unconsumed, so the caller's next structural check
// fails on it.
func (p *Parser) Int64() (int64, bool) {
	u, neg, ok := p.digits()
	if !ok {
		return 0, false
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true
	}
	if u > math.MaxInt64 {
		return 0, false
	}
	return int64(u), true
}

// Int consumes an integer literal that fits an int.
func (p *Parser) Int() (int, bool) {
	v, ok := p.Int64()
	if !ok || int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// Float consumes a number without an exponent, -?(0|[1-9][0-9]*)(\.[0-9]+)?,
// and converts it as encoding/json does.
func (p *Parser) Float() (float64, bool) {
	p.ws()
	start := p.pos
	if p.pos < len(p.data) && p.data[p.pos] == '-' {
		p.pos++
	}
	intStart := p.pos
	for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == intStart || (p.data[intStart] == '0' && p.pos-intStart > 1) {
		return 0, false
	}
	if p.pos < len(p.data) && p.data[p.pos] == '.' {
		p.pos++
		fracStart := p.pos
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
		}
		if p.pos == fracStart {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(p.data[start:p.pos]), 64)
	return f, err == nil
}
