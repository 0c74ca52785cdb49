package dfg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/model"
	"repro/internal/wire"
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
	return g.AppendJSON(make([]byte, 0, 24+48*len(g.ops)+12*g.NumEdges())), nil
}

// AppendJSON appends the graph's canonical encoding, MarshalJSON's
// bytes, to b.
func (g *Graph) AppendJSON(b []byte) []byte {
	b = append(b, `{"ops":[`...)
	for i, o := range g.ops {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if o.Name != "" {
			b = append(b, `"name":`...)
			b = wire.AppendString(b, o.Name)
			b = append(b, ',')
		}
		b = append(b, `"type":`...)
		b = wire.AppendString(b, o.Spec.Type.String())
		b = append(b, `,"hi":`...)
		b = strconv.AppendInt(b, int64(o.Spec.Sig.Hi), 10)
		if o.Spec.Sig.Lo != 0 {
			b = append(b, `,"lo":`...)
			b = strconv.AppendInt(b, int64(o.Spec.Sig.Lo), 10)
		}
		b = append(b, '}')
	}
	b = append(b, `],"deps":`...)
	if g.NumEdges() == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		var buf [16]OpID
		first := true
		for from, ss := range g.succ {
			tos := ss
			if !slices.IsSorted(ss) {
				tos = append(buf[:0], ss...)
				slices.Sort(tos)
			}
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
	return append(b, '}')
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
// canonical subset of the interchange format: one graph object as
// parseGraph reads it, surrounded by nothing but whitespace. It never
// reports an error, so whether a document is malformed is always
// encoding/json's call.
func parseCanonical(data []byte) (g *Graph, deps [][2]int, ok bool) {
	p := wire.NewParser(data)
	if g, deps, ok = parseGraph(&p); !ok || !p.Done() {
		return nil, nil, false
	}
	return g, deps, true
}

// ParseWire consumes one graph object in the canonical subset (see
// parseGraph) at p's cursor and validates it. It reports false, without
// an error, on anything outside the subset and on an invalid graph:
// the caller falls back to encoding/json, which decodes through
// UnmarshalJSON and reports why.
func ParseWire(p *wire.Parser) (*Graph, bool) {
	g, deps, ok := parseGraph(p)
	if !ok || g.addWireDeps(deps) != nil {
		return nil, false
	}
	return g, true
}

// parseGraph consumes one graph object in the canonical subset of the
// interchange format (see wire.Parser):
//
//   - the keys "ops" and "deps", each at most once, spelled exactly so;
//     operation objects with the keys "name", "type", "hi" and "lo",
//     each at most once, and a type of "add", "sub" or "mul";
//   - integers that fit an int;
//   - dependencies of exactly two integers, or "deps":null.
//
// It returns the graph's operations and the dependencies still to add,
// or ok=false on anything outside the subset. Names share one string
// copy of the document.
func parseGraph(p *wire.Parser) (g *Graph, deps [][2]int, ok bool) {
	g = New()
	ok = p.Members(func(key []byte) uint16 {
		switch string(key) {
		case "ops":
			return wire.Bit(1, parseOps(p, g))
		case "deps":
			var ok bool
			deps, ok = parseDeps(p)
			return wire.Bit(2, ok)
		}
		return 0
	})
	return g, deps, ok
}

// minOpBytes is the length of the shortest operation object of the
// canonical subset, {"type":"add","hi":1}.
const minOpBytes = len(`{"type":"add","hi":1}`)

// parseOps consumes the operations array, appending each operation to g.
func parseOps(p *wire.Parser, g *Graph) bool {
	// Size the graph for every operation the array can hold: each is an
	// object of at least minOpBytes, and none holds an array, so the
	// first ']' ends the array unless a name holds one, which only
	// undercounts. Looking further would size every graph of a batch for
	// the operations of all the graphs after it.
	rest := p.Rest()
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	n := min(bytes.Count(rest, []byte{'{'}), len(rest)/minOpBytes)
	g.ops = make([]Op, 0, n)
	g.succ = make([][]OpID, 0, n)
	g.pred = make([][]OpID, 0, n)
	return p.Array(func() bool { return parseOp(p, g) })
}

// parseOp consumes one operation object and appends it to g.
func parseOp(p *wire.Parser, g *Graph) bool {
	var (
		name     string
		typeName []byte
		hi, lo   int
	)
	ok := p.Members(func(key []byte) uint16 {
		var ok bool
		switch string(key) {
		case "name":
			name, ok = p.Name()
			return wire.Bit(1, ok)
		case "type":
			typeName, ok = p.Str()
			return wire.Bit(2, ok)
		case "hi":
			hi, ok = p.Int()
			return wire.Bit(4, ok)
		case "lo":
			lo, ok = p.Int()
			return wire.Bit(8, ok)
		}
		return 0
	})
	if !ok {
		return false
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

// parseDeps consumes the dependency array or null.
func parseDeps(p *wire.Parser) ([][2]int, bool) {
	if p.Null() {
		return nil, true
	}
	// As parseOps does: no '}' occurs inside the array, so the first one
	// bounds it.
	rest := p.Rest()
	if end := bytes.IndexByte(rest, '}'); end >= 0 {
		rest = rest[:end]
	}
	deps := make([][2]int, 0, min(bytes.Count(rest, []byte{'['}), len(rest)/len("[0,0]")))
	ok := p.Array(func() bool {
		if !p.Eat('[') {
			return false
		}
		from, ok := p.Int()
		if !ok || !p.Eat(',') {
			return false
		}
		to, ok := p.Int()
		if !ok || !p.Eat(']') {
			return false
		}
		deps = append(deps, [2]int{from, to})
		return true
	})
	return deps, ok
}
