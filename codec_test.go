// Tests for the hand-written v1 wire codec in wire.go against its
// reference, plain encoding/json on the same structs.
package mwl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	mwl "repro"
)

// omitzeroHonoured reports whether this toolchain's encoding/json
// applies omitzero tags, as the codec does. Before Go 1.24 it writes
// zero libraries, options and stats as empty objects, so json.Marshal
// is then the wrong reference for the envelopes, not the codec wrong.
func omitzeroHonoured() bool {
	blob, _ := json.Marshal(struct {
		A struct{} `json:"a,omitzero"`
	}{})
	return string(blob) == "{}"
}

// checkSameBytes fails unless the codec's bytes equal json.Marshal's
// for v, on a toolchain where json.Marshal is the reference.
func checkSameBytes(t *testing.T, what string, got []byte, v any) {
	t.Helper()
	if !omitzeroHonoured() {
		return
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: codec wrote\n%s\nencoding/json writes\n%s", what, got, want)
	}
}

// sameProblem reports how two problems differ, comparing graphs by their
// canonical encoding and everything else field by field.
func sameProblem(a, b mwl.Problem) error {
	ga, gb := a.Graph, b.Graph
	if (ga == nil) != (gb == nil) {
		return fmt.Errorf("graph %v vs %v", ga, gb)
	}
	if ga != nil {
		ba, _ := ga.MarshalJSON()
		bb, _ := gb.MarshalJSON()
		if !bytes.Equal(ba, bb) {
			return fmt.Errorf("graphs differ:\n%s\n%s", ba, bb)
		}
	}
	a.Graph, b.Graph = nil, nil
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("%+v vs %+v", a, b)
	}
	return nil
}

// codecDatapath is a valid datapath of four operations that every
// mutation in datapathMutations keeps valid.
func codecDatapath() *mwl.Datapath {
	return &mwl.Datapath{
		Start: []int{0, 2, 4, 6},
		Instances: []mwl.Instance{
			{Kind: mwl.Kind{Class: mwl.Mul, Sig: mwl.MulSig(16, 8)}, Ops: []mwl.OpID{0, 2}},
			{Kind: mwl.Kind{Class: mwl.Add, Sig: mwl.AddSig(12)}, Ops: []mwl.OpID{1, 3}},
		},
		InstOf: []int{0, 1, 0, 1},
	}
}

// datapathMutations changes each field of a datapath, by its path below
// the Datapath, to another legal value. nil marks a struct covered by
// its own fields, or InstOf, which is derived on decode.
var datapathMutations = map[string]func(dp *mwl.Datapath){
	"Start": func(dp *mwl.Datapath) { dp.Start[1] = 9 },
	"Instances": func(dp *mwl.Datapath) {
		dp.Instances[1].Ops = dp.Instances[1].Ops[:1]
		dp.Instances = append(dp.Instances, mwl.Instance{Kind: mwl.Kind{Class: mwl.Add, Sig: mwl.AddSig(12)}, Ops: []mwl.OpID{3}})
		dp.InstOf[3] = 2
	},
	"Instances.Kind":        nil,
	"Instances.Kind.Class":  func(dp *mwl.Datapath) { dp.Instances[0].Kind.Class = mwl.Add },
	"Instances.Kind.Sig":    nil,
	"Instances.Kind.Sig.Hi": func(dp *mwl.Datapath) { dp.Instances[0].Kind.Sig.Hi = 20 },
	"Instances.Kind.Sig.Lo": func(dp *mwl.Datapath) { dp.Instances[0].Kind.Sig.Lo = 4 },
	"Instances.Ops": func(dp *mwl.Datapath) {
		dp.Instances[0].Ops = dp.Instances[0].Ops[:1]
		dp.Instances[1].Ops = []mwl.OpID{1, 2, 3}
		dp.InstOf[2] = 1
	},
	"InstOf": nil,
}

var datapathType = reflect.TypeOf((*mwl.Datapath)(nil))

// fieldPaths lists the exported fields of t, recursively through
// structs, pointers and slices of structs, as dotted paths. Fields
// tagged json:"-" are not on the wire and are left out.
func fieldPaths(t reflect.Type) []string {
	var out []string
	var walk func(t reflect.Type, prefix string)
	walk = func(t reflect.Type, prefix string) {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice {
			t = t.Elem()
		}
		if t.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() || f.Tag.Get("json") == "-" {
				continue
			}
			out = append(out, prefix+f.Name)
			walk(f.Type, prefix+f.Name+".")
		}
	}
	walk(t, "")
	return out
}

// mutate changes the field at path in the value root points to, to a
// non-zero value the wire can carry, allocating the datapaths on the
// way. It reports false for a struct, which its fields cover.
func mutate(t *testing.T, root reflect.Value, path string) bool {
	t.Helper()
	v := root.Elem()
	names := strings.Split(path, ".")
	for i, name := range names {
		if v.Type() == datapathType {
			if v.IsNil() {
				v.Set(reflect.ValueOf(codecDatapath()))
			}
			m, ok := datapathMutations[strings.Join(names[i:], ".")]
			if !ok {
				t.Fatalf("%s: no mutation for this Datapath field; give it one, and teach the codec the field", path)
			}
			if m == nil {
				return false
			}
			m(v.Interface().(*mwl.Datapath))
			return true
		}
		v = v.FieldByName(name)
	}
	switch {
	case v.Type() == datapathType:
		v.Set(reflect.ValueOf(codecDatapath()))
		return true
	case v.Type() == reflect.TypeOf((*mwl.Graph)(nil)):
		g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 9, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		v.Set(reflect.ValueOf(g))
		return true
	}
	switch v.Kind() {
	case reflect.Struct:
		return false
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 7)
	case reflect.Float64:
		v.SetFloat(0.25)
	case reflect.String:
		v.SetString("probe")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i, k := range []string{"mul", "add"} {
			m.SetMapIndex(reflect.ValueOf(k), reflect.ValueOf(i+2).Convert(v.Type().Elem()))
		}
		v.Set(m)
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.String {
			t.Fatalf("%s: no probe value for %s", path, v.Type())
		}
		v.Set(reflect.ValueOf([]string{"dpalloc", "anneal"}))
	default:
		t.Fatalf("%s: no probe value for kind %s; give it one, and teach the codec the field", path, v.Kind())
	}
	return true
}

// TestCodecSeesEveryField is the field-coverage guard of the codec. For
// every exported wire field of Problem and Solution, recursively —
// SolveOptions, LibrarySpec, SolveStats, Datapath and Instance included
// — it sets the field to a non-zero value on an otherwise fixed value
// and checks that the encoder writes json.Marshal's bytes, that the
// one-pass decoder takes those bytes back to the same value without
// falling back to encoding/json, and, for a Problem, that the hash
// moves. A field added without the codec learning it fails here.
func TestCodecSeesEveryField(t *testing.T) {
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseProblem := mwl.Problem{Graph: g, Lambda: 20}
	baseKey, err := baseProblem.Hash()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, path := range fieldPaths(reflect.TypeOf(mwl.Problem{})) {
		p := baseProblem
		if !mutate(t, reflect.ValueOf(&p), path) {
			continue
		}
		blob, err := p.AppendJSON(nil)
		if err != nil {
			t.Fatalf("Problem.%s: %v", path, err)
		}
		checkSameBytes(t, "Problem."+path, blob, p)
		back, ok := mwl.ParseProblem(blob)
		if !ok {
			t.Fatalf("Problem.%s: the encoding would fall back to encoding/json:\n%s", path, blob)
		}
		if d := sameProblem(back, p); d != nil {
			t.Errorf("Problem.%s: round trip: %v", path, d)
		}
		if key, err := p.Hash(); err != nil || key == baseKey {
			t.Errorf("Problem.%s: hash %s (%v) did not move", path, key, err)
		}
		seen[path] = true
	}
	for _, path := range fieldPaths(reflect.TypeOf(mwl.Solution{})) {
		var sol mwl.Solution
		if !mutate(t, reflect.ValueOf(&sol), path) {
			continue
		}
		blob := sol.AppendJSON(nil)
		checkSameBytes(t, "Solution."+path, blob, sol)
		back, ok := mwl.ParseSolution(blob)
		if !ok {
			t.Fatalf("Solution.%s: the encoding would fall back to encoding/json:\n%s", path, blob)
		}
		if !reflect.DeepEqual(back, sol) {
			t.Errorf("Solution.%s: round trip:\n%+v\n%+v", path, back, sol)
		}
		seen[path] = true
	}
	// The walk must have reached into every wire struct.
	for _, path := range []string{"Options.Limits", "Options.Incumbent.Instances.Ops", "Library.MulAreaScale",
		"Stats.Winner", "Datapath.Instances.Kind.Sig.Lo", "AreaByKind"} {
		if !seen[path] {
			t.Errorf("field %s was not probed", path)
		}
	}
}

// TestDecodersMatchEncodingJSON: on canonical and non-canonical
// documents alike, the decoders agree with plain encoding/json — the
// same value, or both an error.
func TestDecodersMatchEncodingJSON(t *testing.T) {
	p := fuzzProblemBlob(t, 6, 2, func(p *mwl.Problem) {
		p.Method = "anneal"
		p.Options = mwl.SolveOptions{Seed: 3, AnnealInitTemp: 12.5, Limits: map[string]int{"add": 2}, Portfolio: []string{}}
	})
	for _, doc := range []string{
		string(p),
		" \n" + string(p) + "\t ",
		strings.Replace(string(p), `"lambda"`, `"Lambda"`, 1),                   // case-variant key
		strings.Replace(string(p), `"lambda":40`, `"lambda":40,"lambda":41`, 1), // duplicate
		strings.Replace(string(p), `"lambda":40`, `"lambda":4e1`, 1),            // exponent
		strings.Replace(string(p), `"anneal"`, `"\u0061nneal"`, 1),              // escape
		strings.Replace(string(p), `12.5`, `1.25e1`, 1),                         // exponent float
		strings.Replace(string(p), `"lambda":40`, `"lambda":40,"extra":[1,{}]`, 1),
		strings.Replace(string(p), `"lambda":40`, `"lambda":null`, 1),
		`{"graph":null,"lambda":1}`,
		`{"graph":{"ops":[{"type":"add","hi":8}],"deps":[[0,0]]},"lambda":1}`, // invalid graph
		string(p) + "}",
		`{"graph":{"ops":[],"deps":null},"lambda":1,"options":{"limits":{"add":1,"add":2}}}`,
		`{"graph":{"ops":[],"deps":null},"lambda":99999999999999999999}`,
		``,
	} {
		got, err := mwl.DecodeProblem([]byte(doc))
		var ref mwl.Problem
		refErr := json.Unmarshal([]byte(doc), &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: DecodeProblem error %v, encoding/json error %v", doc, err, refErr)
		}
		if err == nil {
			if d := sameProblem(got, ref); d != nil {
				t.Fatalf("%q: %v", doc, d)
			}
		}
	}
}

// TestBatchEncodersMatchEncodingJSON: AppendBatchResponse and
// AppendStreamRecord write what json.Marshal writes for the wire
// structs, for solutions, hits spliced from held bytes, and errors
// with and without the infeasible mark.
func TestBatchEncodersMatchEncodingJSON(t *testing.T) {
	svc := mwl.NewService(1)
	p := mwl.Problem{Graph: mwl.Fig1Graph(), Lambda: 40}
	fresh, err := svc.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := p.Hash()
	cached, hit, ok := svc.Hit(key, &p)
	if !ok {
		t.Fatal("no hit after a solve")
	}
	results := []mwl.BatchResult{
		{Solution: fresh},
		{Solution: cached, Hit: hit},
		{Err: fmt.Errorf("%w: λ=3 below λ_min=8 <&>", mwl.ErrInfeasible)},
		{Err: errors.New("tab\there \"quoted\" \u2028 \xff é")},
		{Err: errors.New("")},
	}
	var wires []mwl.BatchResultWire
	for i, r := range results {
		wires = append(wires, r.Wire())
		checkSameBytes(t, fmt.Sprintf("stream record %d", i), bytes.TrimSuffix(mwl.AppendStreamRecord(nil, i, r), []byte("\n")),
			mwl.StreamResultWire{Index: i, BatchResultWire: r.Wire()})
		if rec := mwl.AppendStreamRecord(nil, i, r); !bytes.HasSuffix(rec, []byte("}\n")) {
			t.Fatalf("stream record %d not newline-terminated: %q", i, rec)
		}
	}
	checkSameBytes(t, "batch response", mwl.AppendBatchResponse(nil, results), mwl.BatchResponse{Results: wires})
	checkSameBytes(t, "empty batch response", mwl.AppendBatchResponse(nil, nil), mwl.BatchResponse{Results: []mwl.BatchResultWire{}})
}
