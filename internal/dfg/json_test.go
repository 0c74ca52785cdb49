package dfg_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/tgff"
	"repro/internal/wire"
)

// refGraph and refOp are the interchange format as plain encoding/json
// structs: the reference the hand-written codec is checked against.
type refGraph struct {
	Ops  []refOp  `json:"ops"`
	Deps [][2]int `json:"deps"`
}

type refOp struct {
	Name string `json:"name,omitempty"`
	Type string `json:"type"`
	Hi   int    `json:"hi"`
	Lo   int    `json:"lo,omitempty"`
}

// refDecode decodes data with encoding/json alone and builds the graph
// one AddOp/AddDep call at a time.
func refDecode(data []byte) (*dfg.Graph, error) {
	var jg refGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, err
	}
	g := dfg.New()
	for i, jo := range jg.Ops {
		typ, err := model.ParseOpType(jo.Type)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		lo := jo.Lo
		if lo == 0 {
			lo = jo.Hi
		}
		g.AddOp(jo.Name, typ, model.Sig(jo.Hi, lo))
	}
	for _, d := range jg.Deps {
		if err := g.AddDep(dfg.OpID(d[0]), dfg.OpID(d[1])); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// refEncode encodes g with encoding/json alone.
func refEncode(t *testing.T, g *dfg.Graph) []byte {
	t.Helper()
	jg := refGraph{Ops: make([]refOp, g.N())}
	for i, o := range g.Ops() {
		jg.Ops[i] = refOp{Name: o.Name, Type: o.Spec.Type.String(), Hi: o.Spec.Sig.Hi, Lo: o.Spec.Sig.Lo}
		for _, to := range g.Succ(dfg.OpID(i)) {
			jg.Deps = append(jg.Deps, [2]int{i, int(to)})
		}
	}
	sort.Slice(jg.Deps, func(a, b int) bool {
		if jg.Deps[a][0] != jg.Deps[b][0] {
			return jg.Deps[a][0] < jg.Deps[b][0]
		}
		return jg.Deps[a][1] < jg.Deps[b][1]
	})
	blob, err := json.Marshal(jg)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// sameGraph reports the first difference between two graphs: the
// operations and both adjacency lists, in order.
func sameGraph(a, b *dfg.Graph) error {
	if a.N() != b.N() {
		return fmt.Errorf("%d vs %d operations", a.N(), b.N())
	}
	for i := 0; i < a.N(); i++ {
		id := dfg.OpID(i)
		if a.Op(id) != b.Op(id) {
			return fmt.Errorf("op %d: %+v vs %+v", i, a.Op(id), b.Op(id))
		}
		if fmt.Sprint(a.Succ(id)) != fmt.Sprint(b.Succ(id)) || fmt.Sprint(a.Pred(id)) != fmt.Sprint(b.Pred(id)) {
			return fmt.Errorf("op %d: succ %v pred %v vs succ %v pred %v", i, a.Succ(id), a.Pred(id), b.Succ(id), b.Pred(id))
		}
	}
	return nil
}

// plainNames reports whether every operation name consists of bytes
// 0x20–0x7f that encoding/json writes without escapes.
func plainNames(g *dfg.Graph) bool {
	for _, o := range g.Ops() {
		for i := 0; i < len(o.Name); i++ {
			if c := o.Name[i]; c < 0x20 || c >= 0x80 || bytes.IndexByte([]byte(`"\<>&`), c) >= 0 {
				return false
			}
		}
	}
	return true
}

// graphWireSeeds are documents at and around the edge of the canonical
// subset the single-pass decoder accepts.
var graphWireSeeds = []string{
	`{"ops":[{"name":"a","type":"mul","hi":8,"lo":4},{"type":"add","hi":9}],"deps":[[0,1]]}`,
	`{"ops":[{"type":"add","hi":8}],"deps":null}`,
	`{"ops":[],"deps":null}`,
	`{}`,
	` { "ops" : [ { "type" : "sub" , "hi" : 3 } ] , "deps" : [ ] } `,
	"{\n\t\"ops\":[{\"type\":\"add\",\r\n\"hi\":8}]}\n",
	`{"deps":[[1,0]],"ops":[{"type":"add","hi":8},{"type":"mul","hi":4,"lo":2}]}`,
	// Duplicate and mixed-case keys.
	`{"ops":[{"type":"add","hi":8}],"ops":[{"type":"mul","hi":4}]}`,
	`{"ops":[{"type":"add","hi":8,"hi":9}]}`,
	`{"Ops":[{"Type":"add","HI":8}]}`,
	`{"ops":[{"type":"add","hi":8}],"deps":[[0,1]],"deps":null}`,
	// nulls outside "deps".
	`null`,
	`{"ops":null}`,
	`{"ops":[null]}`,
	`{"ops":[{"name":null,"type":"add","hi":8}]}`,
	`{"ops":[{"type":"add","hi":null}]}`,
	// Escaped, non-ASCII and HTML-sensitive names.
	`{"ops":[{"name":"A","type":"add","hi":8}]}`,
	`{"ops":[{"name":"naïve","type":"add","hi":8}]}`,
	`{"ops":[{"name":"naïve","type":"add","hi":8}]}`,
	`{"ops":[{"name":"a<b&c>d","type":"add","hi":8}]}`,
	`{"ops":[{"name":"a<b","type":"add","hi":8}]}`,
	`{"ops":[{"name":"a>b","type":"add","hi":8}]}`,
	`{"ops":[{"name":"a&b","type":"add","hi":8}]}`,
	`{"ops":[{"name":"a\"b","type":"add","hi":8}]}`,
	`{"ops":[{"name":"a\\b","type":"add","hi":8}]}`,
	`{"ops":[{"name":"a\u2028b","type":"add","hi":8}]}`,
	`{"ops":[{"name":"<&","type":"add","hi":8}]}`,
	"{\"ops\":[{\"name\":\"bad\xff\",\"type\":\"add\",\"hi\":8}]}",
	"{\"ops\":[{\"name\":\"tab\there\",\"type\":\"add\",\"hi\":8}]}",
	`{"ops":[{"type":"add","hi":8}]}`,
	`{"ops":[{"type":"div","hi":8}]}`,
	`{"ops":[{"hi":8}]}`,
	// Numbers that are not plain ints.
	`{"ops":[{"type":"add","hi":8.0}]}`,
	`{"ops":[{"type":"add","hi":1e3}]}`,
	`{"ops":[{"type":"add","hi":-0}]}`,
	`{"ops":[{"type":"add","hi":08}]}`,
	`{"ops":[{"type":"add","hi":9223372036854775807}]}`,
	`{"ops":[{"type":"add","hi":9223372036854775808}]}`,
	`{"ops":[{"type":"add","hi":-9223372036854775809}]}`,
	`{"ops":[{"type":"add","hi":99999999999999999999999}]}`,
	`{"ops":[{"type":"add","hi":8}],"deps":[[0,-1]]}`,
	// Malformed dependencies.
	`{"ops":[{"type":"add","hi":8},{"type":"add","hi":8}],"deps":[[0]]}`,
	`{"ops":[{"type":"add","hi":8},{"type":"add","hi":8}],"deps":[[0,1,2]]}`,
	`{"ops":[{"type":"add","hi":8},{"type":"add","hi":8}],"deps":[[0,1],[0,1]]}`,
	`{"ops":[{"type":"add","hi":8},{"type":"add","hi":8}],"deps":[[0,1],[1,0]]}`,
	`{"ops":[{"type":"add","hi":8}],"deps":[[0,0]]}`,
	`{"ops":[{"type":"add","hi":8}],"deps":[[0,3]]}`,
	// Trailing commas and trailing data.
	`{"ops":[{"type":"add","hi":8},],"deps":null}`,
	`{"ops":[{"type":"add","hi":8,}]}`,
	`{"ops":[],}`,
	`{"ops":[]}}`,
	`{"ops":[]} x`,
	`{"ops":[],"extra":1}`,
	`[]`,
	``,
}

// FuzzGraphWire checks the hand-written graph codec against plain
// encoding/json. Decoding: for any bytes, UnmarshalJSON and refDecode
// both fail or yield identical graphs. Encoding: every decodable graph
// marshals to exactly refEncode's bytes, and that encoding takes the
// single-pass path whenever its names need no escaping.
func FuzzGraphWire(f *testing.F) {
	for _, s := range graphWireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var g dfg.Graph
		err := g.UnmarshalJSON(data)
		ref, refErr := refDecode(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("UnmarshalJSON error %v, encoding/json error %v on %q", err, refErr, data)
		}
		if err != nil {
			return
		}
		if d := sameGraph(&g, ref); d != nil {
			t.Fatalf("graphs differ on %q: %v", data, d)
		}
		blob, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := refEncode(t, &g); !bytes.Equal(blob, want) {
			t.Fatalf("MarshalJSON\n%s\nencoding/json\n%s", blob, want)
		}
		if plainNames(&g) && !dfg.Canonical(blob) {
			t.Fatalf("canonical encoding misses the single-pass path: %s", blob)
		}
	})
}

// TestMarshalledGraphsTakeTheFastPath: json.Marshal output for TGFF
// graphs, with and without names and edges, decodes on the single-pass
// path to the graph encoding/json builds from it.
func TestMarshalledGraphsTakeTheFastPath(t *testing.T) {
	for _, n := range []int{1, 2, 10, 30, 200} {
		for seed := int64(1); seed <= 3; seed++ {
			g, err := tgff.Generate(tgff.Config{N: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			unnamed, edgeless := dfg.New(), dfg.New()
			for _, o := range g.Ops() {
				unnamed.AddOp("", o.Spec.Type, o.Spec.Sig)
				edgeless.AddOp(o.Name, o.Spec.Type, o.Spec.Sig)
			}
			for i := 0; i < g.N(); i++ {
				for _, to := range g.Succ(dfg.OpID(i)) {
					if err := unnamed.AddDep(dfg.OpID(i), to); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, h := range []*dfg.Graph{g, unnamed, edgeless} {
				blob, err := json.Marshal(h)
				if err != nil {
					t.Fatal(err)
				}
				if !dfg.Canonical(blob) {
					t.Fatalf("N=%d seed %d: json.Marshal output misses the single-pass path:\n%s", n, seed, blob)
				}
				var back dfg.Graph
				if err := json.Unmarshal(blob, &back); err != nil {
					t.Fatal(err)
				}
				ref, err := refDecode(blob)
				if err != nil {
					t.Fatal(err)
				}
				if d := sameGraph(&back, ref); d != nil {
					t.Fatalf("N=%d seed %d: round trip: %v", n, seed, d)
				}
			}
		}
	}
}

// TestParseWireSizesFromItsOwnArrays: a graph read from the middle of a
// larger document, as each problem of a batch is, is sized for its own
// operations, not for every operation in the rest of the document.
func TestParseWireSizesFromItsOwnArrays(t *testing.T) {
	g, err := tgff.Generate(tgff.Config{N: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	doc := append([]byte{'['}, blob...)
	for i := 0; i < 20; i++ {
		doc = append(append(doc, ','), blob...)
	}
	p := wire.NewParser(append(doc, ']'))
	if !p.Eat('[') {
		t.Fatal("no array")
	}
	got, ok := dfg.ParseWire(&p)
	if !ok {
		t.Fatal("the first graph missed the one-pass path")
	}
	if c := dfg.Capacity(got); c != g.N() {
		t.Fatalf("graph of %d operations sized for %d", g.N(), c)
	}
}
