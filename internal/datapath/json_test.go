package datapath

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/wire"
)

func sampleDatapath() *Datapath {
	return &Datapath{
		Start:  []int{0, 0, 3},
		InstOf: []int{0, 1, 0},
		Instances: []Instance{
			{Kind: model.Kind{Class: model.Mul, Sig: model.Sig(12, 8)}, Ops: []dfg.OpID{0, 2}},
			{Kind: model.Kind{Class: model.Add, Sig: model.AddSig(16)}, Ops: []dfg.OpID{1}},
		},
	}
}

func TestDatapathJSONRoundTrip(t *testing.T) {
	dp := sampleDatapath()
	blob, err := json.Marshal(dp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"class":"mul"`) {
		t.Fatalf("wire form lacks readable class names: %s", blob)
	}
	var back Datapath
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, dp) {
		t.Fatalf("round trip differs:\n%+v\n%+v", back, dp)
	}
}

func TestDatapathJSONRejectsBadBindings(t *testing.T) {
	cases := map[string]string{
		"unbound op":      `{"start":[0,0],"instances":[{"class":"add","hi":8,"ops":[0]}]}`,
		"double bound":    `{"start":[0],"instances":[{"class":"add","hi":8,"ops":[0]},{"class":"add","hi":8,"ops":[0]}]}`,
		"op out of range": `{"start":[0],"instances":[{"class":"add","hi":8,"ops":[1]}]}`,
		"bad class":       `{"start":[0],"instances":[{"class":"sub","hi":8,"ops":[0]}]}`,
		"unknown class":   `{"start":[0],"instances":[{"class":"div","hi":8,"ops":[0]}]}`,
		"bad signature":   `{"start":[0],"instances":[{"class":"add","hi":-1,"ops":[0]}]}`,
	}
	for name, blob := range cases {
		var dp Datapath
		if err := json.Unmarshal([]byte(blob), &dp); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// schemaEncode encodes dp through jsonDatapath with encoding/json
// alone: the reference AppendJSON is checked against.
func schemaEncode(t *testing.T, dp *Datapath) []byte {
	t.Helper()
	jd := jsonDatapath{Start: dp.Start, Instances: make([]jsonInstance, len(dp.Instances))}
	if jd.Start == nil {
		jd.Start = []int{}
	}
	for i, in := range dp.Instances {
		ops := make([]int, len(in.Ops))
		for j, o := range in.Ops {
			ops[j] = int(o)
		}
		jd.Instances[i] = jsonInstance{Class: in.Kind.Class.String(), Hi: in.Kind.Sig.Hi, Lo: in.Kind.Sig.Lo, Ops: ops}
	}
	blob, err := json.Marshal(jd)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// datapathWireSeeds are canonical documents, near misses and
// non-canonical ones.
var datapathWireSeeds = []string{
	`{"start":[0,0,3],"instances":[{"class":"mul","hi":12,"lo":8,"ops":[0,2]},{"class":"add","hi":16,"lo":16,"ops":[1]}]}`,
	`{"start":[],"instances":[]}`,
	`{"start":null,"instances":null}`,
	`{"instances":[],"start":[]}`,
	`{"start":[4],"instances":[{"class":"add","hi":8,"ops":[0]},{"class":"mul","hi":3,"lo":2,"ops":null}]}`,
	` { "start" : [ 1 , 2 ] , "instances" : [ { "ops" : [ 1 , 0 ] , "lo" : 1 , "hi" : 2 , "class" : "add" } ] } `,
	`{"start":[0],"instances":[{"class":"sub","hi":8,"ops":[0]}]}`,
	`{"start":[0],"instances":[{"class":"add","hi":8,"ops":[0]},{"class":"add","hi":8,"ops":[0]}]}`,
	`{"start":[0],"start":[1],"instances":[{"class":"add","hi":8,"ops":[0]}]}`,
	`{"start":[0],"instances":[{"class":"add","hi":8,"ops":[0],"Ops":[0]}]}`,
	`{"start":[1e1],"instances":[{"class":"add","hi":8,"ops":[0]}]}`,
	`{"start":[0],"instances":[{"class":"\u0061dd","hi":8,"ops":[0]}]}`,
	`{"start":[0],"instances":[{"class":"add","hi":-1,"ops":[0]}]}`,
	`{"start":[0],"instances":[{"class":"add","hi":8,"lo":9,"ops":[0]}]}`,
}

// FuzzDatapathWire checks the datapath codec against the encoding/json
// schema, as FuzzGraphWire does the graph's. Decoding: for any bytes,
// the one-pass ParseWire either declines or yields what the schema
// decode yields, and declines whenever the schema decode fails.
// Encoding: every decodable datapath encodes to the schema's bytes, on
// the one-pass path again.
func FuzzDatapathWire(f *testing.F) {
	for _, s := range datapathWireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := unmarshalSchema(data)
		p := wire.NewParser(data)
		fast, ok := ParseWire(&p)
		ok = ok && p.Done()
		if ok && refErr != nil {
			t.Fatalf("ParseWire accepts %q, which encoding/json refuses: %v", data, refErr)
		}
		if ok && !reflect.DeepEqual(fast, ref) {
			t.Fatalf("decoders differ on %q:\n%+v\n%+v", data, fast, ref)
		}
		if refErr != nil {
			return
		}
		blob := ref.AppendJSON(nil)
		if want := schemaEncode(t, ref); string(blob) != string(want) {
			t.Fatalf("AppendJSON\n%s\nencoding/json\n%s", blob, want)
		}
		p = wire.NewParser(blob)
		if back, ok := ParseWire(&p); !ok || !p.Done() || !reflect.DeepEqual(back, ref) {
			t.Fatalf("encoding misses the one-pass path or loses the value: %s", blob)
		}
	})
}

// TestParseWireSizesFromItsOwnArrays: a datapath read from the middle of
// a larger document, as a batch member's incumbent is, is sized for its
// own instances, not for every object in the rest of the document.
func TestParseWireSizesFromItsOwnArrays(t *testing.T) {
	blob := sampleDatapath().AppendJSON(nil)
	doc := append([]byte{'['}, blob...)
	for i := 0; i < 20; i++ {
		doc = append(append(doc, ','), blob...)
	}
	p := wire.NewParser(append(doc, ']'))
	if !p.Eat('[') {
		t.Fatal("no array")
	}
	got, ok := ParseWire(&p)
	if !ok {
		t.Fatal("the first datapath missed the one-pass path")
	}
	if n, c := len(got.Instances), cap(got.Instances); c != n {
		t.Fatalf("datapath of %d instances sized for %d", n, c)
	}
}
