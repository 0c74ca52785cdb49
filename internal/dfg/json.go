package dfg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/model"
)

// jsonGraph is the sequencing-graph part of the v1 wire schema, shared
// by the cmd tools, the mwl Problem encoding and the mwld service. The
// encoding is canonical — operations in id order, dependencies sorted by
// (from, to) — so byte equality of the output implies graph equality and
// the encoding can seed content hashes.
//
// MarshalJSON and the fast path of UnmarshalJSON handle the format by
// hand; this struct is the encoding/json schema the decoder falls back
// to, and the definition both hand-written halves must agree with.
type jsonGraph struct {
	Ops  []jsonOp `json:"ops"`
	Deps [][2]int `json:"deps"`
}

type jsonOp struct {
	Name string `json:"name,omitempty"`
	Type string `json:"type"`         // "add", "sub" or "mul"
	Hi   int    `json:"hi"`           // larger operand width
	Lo   int    `json:"lo,omitempty"` // smaller operand width; defaults to hi
}

// MarshalJSON encodes the graph in the canonical interchange format. The
// output is byte-identical to json.Marshal of the equivalent jsonGraph,
// without reflection.
func (g *Graph) MarshalJSON() ([]byte, error) {
	edges := g.NumEdges()
	b := make([]byte, 0, 24+48*len(g.ops)+12*edges)
	b = append(b, `{"ops":[`...)
	for i, o := range g.ops {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if o.Name != "" {
			b = append(b, `"name":`...)
			b = appendString(b, o.Name)
			b = append(b, ',')
		}
		b = append(b, `"type":`...)
		b = appendString(b, o.Spec.Type.String())
		b = append(b, `,"hi":`...)
		b = strconv.AppendInt(b, int64(o.Spec.Sig.Hi), 10)
		if o.Spec.Sig.Lo != 0 {
			b = append(b, `,"lo":`...)
			b = strconv.AppendInt(b, int64(o.Spec.Sig.Lo), 10)
		}
		b = append(b, '}')
	}
	b = append(b, `],"deps":`...)
	if edges == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		var tos []OpID
		first := true
		for from, ss := range g.succ {
			tos = append(tos[:0], ss...)
			slices.Sort(tos)
			for _, to := range tos {
				if !first {
					b = append(b, ',')
				}
				first = false
				b = append(b, '[')
				b = strconv.AppendInt(b, int64(from), 10)
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(to), 10)
				b = append(b, ']')
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendString appends s as a JSON string literal. Strings of bytes
// 0x20–0x7f that encoding/json would not escape are copied verbatim; any
// other string is quoted by encoding/json itself, so escaping (HTML-safe
// characters, control bytes, U+2028/U+2029, invalid UTF-8) stays exactly
// encoding/json's.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// UnmarshalJSON decodes a graph from the interchange format and validates
// it. A document in the canonical subset (see parseCanonical) — which
// covers everything MarshalJSON emits — is decoded in one hand-written
// pass; anything else goes through encoding/json, which therefore keeps
// the last word on every unusual or malformed document.
func (g *Graph) UnmarshalJSON(data []byte) error {
	ng, deps, ok := parseCanonical(data)
	if !ok {
		var jg jsonGraph
		if err := json.Unmarshal(data, &jg); err != nil {
			return err
		}
		ng = New()
		for i, jo := range jg.Ops {
			typ, err := model.ParseOpType(jo.Type)
			if err != nil {
				return fmt.Errorf("dfg: op %d: %w", i, err)
			}
			ng.addWireOp(jo.Name, typ, jo.Hi, jo.Lo)
		}
		deps = jg.Deps
	}
	if err := ng.addWireDeps(deps); err != nil {
		return err
	}
	*g = *ng
	return nil
}

// addWireOp appends one decoded operation; an absent (zero) lo width
// defaults to hi. Both decoding paths build graphs through it.
func (g *Graph) addWireOp(name string, typ model.OpType, hi, lo int) {
	if lo == 0 {
		lo = hi
	}
	g.AddOp(name, typ, model.Sig(hi, lo))
}

// addWireDeps adds the decoded dependencies in order and validates the
// finished graph, the last step of both decoding paths. The adjacency
// lists are carved out of one backing array sized by the degrees, so a
// decode allocates them once instead of once per operation.
func (g *Graph) addWireDeps(deps [][2]int) error {
	if len(deps) == 0 {
		return g.Validate()
	}
	n := len(g.ops)
	outDeg := make([]int, 2*n)
	inDeg := outDeg[n:]
	for _, d := range deps {
		if d[0] >= 0 && d[0] < n && d[1] >= 0 && d[1] < n {
			outDeg[d[0]]++
			inDeg[d[1]]++
		}
	}
	backing := make([]OpID, 2*len(deps))
	for i := 0; i < n; i++ {
		if k := outDeg[i]; k > 0 {
			g.succ[i], backing = backing[:0:k], backing[k:]
		}
		if k := inDeg[i]; k > 0 {
			g.pred[i], backing = backing[:0:k], backing[k:]
		}
	}
	for _, d := range deps {
		if err := g.AddDep(OpID(d[0]), OpID(d[1])); err != nil {
			return err
		}
	}
	return g.Validate()
}

// parseCanonical decodes data in a single pass when it lies in the
// canonical subset of the interchange format:
//
//   - one object with the keys "ops" and "deps", each at most once,
//     spelled exactly so; operation objects with the keys "name",
//     "type", "hi" and "lo", each at most once, and a type of "add",
//     "sub" or "mul";
//   - strings of bytes 0x20–0x7f without escapes;
//   - integer literals that fit an int;
//   - dependencies of exactly two integers, or "deps":null;
//   - JSON whitespace anywhere between tokens.
//
// It returns the graph's operations and the dependencies still to add,
// or ok=false on anything outside the subset — it never reports an
// error, so whether a document is malformed is always encoding/json's
// call. Names share one string copy of data.
func parseCanonical(data []byte) (g *Graph, deps [][2]int, ok bool) {
	p := wireParser{data: data}
	g = New()
	if !p.eat('{') {
		return nil, nil, false
	}
	var sawOps, sawDeps bool
	for more := !p.eat('}'); more; {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return nil, nil, false
		}
		switch string(key) {
		case "ops":
			if sawOps || !p.ops(g) {
				return nil, nil, false
			}
			sawOps = true
		case "deps":
			if sawDeps {
				return nil, nil, false
			}
			if deps, ok = p.deps(); !ok {
				return nil, nil, false
			}
			sawDeps = true
		default:
			return nil, nil, false
		}
		if more, ok = p.next('}'); !ok {
			return nil, nil, false
		}
	}
	p.ws()
	if p.pos != len(data) {
		return nil, nil, false
	}
	return g, deps, true
}

// wireParser is parseCanonical's cursor. Every method skips leading
// whitespace and reports false, consuming an arbitrary prefix, when the
// input does not continue as expected.
type wireParser struct {
	data []byte
	pos  int
	doc  string // string copy of data, made at the first operation name
}

func (p *wireParser) ws() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// eat consumes the byte c.
func (p *wireParser) eat(c byte) bool {
	p.ws()
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// next consumes the separator after a member or element: a comma
// (more=true) or the closing byte (more=false).
func (p *wireParser) next(closing byte) (more, ok bool) {
	if p.eat(',') {
		return true, true
	}
	return false, p.eat(closing)
}

// str consumes a string of bytes 0x20–0x7f without escapes and returns
// its contents, which alias data.
func (p *wireParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.pos
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		p.pos++
		switch {
		case c == '"':
			return p.data[start : p.pos-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// int consumes an integer literal, -?(0|[1-9][0-9]*), that fits an int.
// A fraction or exponent is left unconsumed, so the caller's next
// structural check fails on it.
func (p *wireParser) int() (int, bool) {
	p.ws()
	neg := p.pos < len(p.data) && p.data[p.pos] == '-'
	if neg {
		p.pos++
	}
	if p.pos >= len(p.data) || p.data[p.pos] < '0' || p.data[p.pos] > '9' {
		return 0, false
	}
	var u uint64
	if p.data[p.pos] == '0' {
		p.pos++
	} else {
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			d := uint64(p.data[p.pos] - '0')
			if u > (math.MaxUint64-d)/10 {
				return 0, false
			}
			u = u*10 + d
			p.pos++
		}
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if u > limit {
		return 0, false
	}
	v := int(u)
	if neg {
		v = -v
	}
	return v, true
}

// minOpBytes is the length of the shortest operation object of the
// canonical subset, {"type":"add","hi":1}.
const minOpBytes = len(`{"type":"add","hi":1}`)

// ops consumes the operations array, appending each operation to g.
func (p *wireParser) ops(g *Graph) bool {
	if !p.eat('[') {
		return false
	}
	// Size the graph for every operation the rest of the document can
	// hold: each needs an object of at least minOpBytes.
	rest := p.data[p.pos:]
	n := min(bytes.Count(rest, []byte{'{'}), len(rest)/minOpBytes)
	g.ops = make([]Op, 0, n)
	g.succ = make([][]OpID, 0, n)
	g.pred = make([][]OpID, 0, n)
	for more := !p.eat(']'); more; {
		if !p.op(g) {
			return false
		}
		var ok bool
		if more, ok = p.next(']'); !ok {
			return false
		}
	}
	return true
}

// op consumes one operation object and appends it to g.
func (p *wireParser) op(g *Graph) bool {
	if !p.eat('{') {
		return false
	}
	var (
		name     string
		typeName []byte
		hi, lo   int
		seen     uint8 // bits: name, type, hi, lo
	)
	for more := !p.eat('}'); more; {
		key, ok := p.str()
		if !ok || !p.eat(':') {
			return false
		}
		var bit uint8
		switch string(key) {
		case "name":
			bit = 1
			var b []byte
			if b, ok = p.str(); ok && len(b) > 0 {
				if p.doc == "" {
					p.doc = string(p.data)
				}
				end := p.pos - 1 // the closing quote
				name = p.doc[end-len(b) : end]
			}
		case "type":
			bit = 2
			typeName, ok = p.str()
		case "hi":
			bit = 4
			hi, ok = p.int()
		case "lo":
			bit = 8
			lo, ok = p.int()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok = p.next('}'); !ok {
			return false
		}
	}
	var typ model.OpType
	switch string(typeName) {
	case "add":
		typ = model.Add
	case "sub":
		typ = model.Sub
	case "mul":
		typ = model.Mul
	default:
		return false // absent or unknown: encoding/json reports it
	}
	g.addWireOp(name, typ, hi, lo)
	return true
}

// deps consumes the dependency array or null.
func (p *wireParser) deps() ([][2]int, bool) {
	p.ws()
	if len(p.data)-p.pos >= 4 && string(p.data[p.pos:p.pos+4]) == "null" {
		p.pos += 4
		return nil, true
	}
	if !p.eat('[') {
		return nil, false
	}
	rest := p.data[p.pos:]
	deps := make([][2]int, 0, min(bytes.Count(rest, []byte{'['}), len(rest)/len("[0,0]")))
	for more := !p.eat(']'); more; {
		if !p.eat('[') {
			return nil, false
		}
		from, ok := p.int()
		if !ok || !p.eat(',') {
			return nil, false
		}
		to, ok := p.int()
		if !ok || !p.eat(']') {
			return nil, false
		}
		deps = append(deps, [2]int{from, to})
		if more, ok = p.next(']'); !ok {
			return nil, false
		}
	}
	return deps, true
}
