package mwl_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	mwl "repro"
)

// hashGoldenGraph builds a small hand-made graph whose operations carry
// the given names, so the golden covers names that need JSON escaping.
func hashGoldenGraph(t *testing.T, names ...string) *mwl.Graph {
	t.Helper()
	g := mwl.NewGraph()
	for i, name := range names {
		typ := []mwl.OpType{mwl.Mul, mwl.Add, mwl.Sub}[i%3]
		g.AddOp(name, typ, mwl.MulSig(8+i, 4+i%3))
	}
	for i := 1; i < len(names); i++ {
		if err := g.AddDep(mwl.OpID(i-1), mwl.OpID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestHashGolden pins Problem.Hash, the key of every cache, store entry
// and shard route, on fixed problems. A changed value means the
// canonical encoding moved: stored entries and peer replicas keyed by
// the old hash would all silently miss.
//
// The hash digests the hand-written encoder's bytes, which apply the
// omitzero tags themselves, so the values hold on every toolchain, not
// only on those whose encoding/json honours omitzero (Go 1.24 on).
func TestHashGolden(t *testing.T) {
	tgff := func(n int, seed int64) *mwl.Graph {
		g, err := mwl.GenerateRandom(mwl.RandomConfig{N: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	fir, err := mwl.FIRGraph(12, []int{8, 10, 6, 9}, 20)
	if err != nil {
		t.Fatal(err)
	}
	zeroLo := mwl.NewGraph()
	zeroLo.AddOp("", mwl.Add, mwl.Signature{Hi: 7})
	incumbent := &mwl.Datapath{
		Start: []int{0, 2},
		Instances: []mwl.Instance{
			{Kind: mwl.Kind{Class: mwl.Mul, Sig: mwl.MulSig(9, 5)}, Ops: []mwl.OpID{0}},
			{Kind: mwl.Kind{Class: mwl.Add, Sig: mwl.AddSig(9)}, Ops: []mwl.OpID{1}},
		},
		InstOf: []int{0, 1},
	}
	cases := []struct {
		name string
		p    mwl.Problem
		want string
	}{
		{"empty-graph", mwl.Problem{Graph: mwl.NewGraph(), Lambda: 1}, "533c94e0769556c7394619336006119e06bfc9c74049fd1994e158e4dc52c068"},
		{"zero-lo", mwl.Problem{Graph: zeroLo, Lambda: 3}, "9fb9cee3a7216aff83f6ecc42fbc82ba8d2bc806e8cb36013f834ce9b4cc3232"},
		{"tgff-5", mwl.Problem{Graph: tgff(5, 1), Lambda: 20}, "e7ca239ff3edcda2ebc077dcf25bb46a67530a662e4811b2e5fb5d1cc79d1977"},
		{"tgff-10", mwl.Problem{Graph: tgff(10, 2), Lambda: 30}, "a169cd5f1c0979f3f4410f50954cedf675070febfcaaf41b895bd5989512a63a"},
		{"tgff-30", mwl.Problem{Graph: tgff(30, 1), Lambda: 60}, "512695453bc5081f256307a36464409eb60e29d98c3590c26c0b594e640a6573"},
		{"tgff-30-method", mwl.Problem{Method: "dpalloc", Graph: tgff(30, 1), Lambda: 60}, "512695453bc5081f256307a36464409eb60e29d98c3590c26c0b594e640a6573"},
		{"fig1", mwl.Problem{Graph: mwl.Fig1Graph(), Lambda: 8}, "3fbe71e38c4ad718eee4c3e9eec4f89f8de717304ae1f38e7bd1d8b07c7bc6d3"},
		{"fir", mwl.Problem{Graph: fir, Lambda: 25}, "bf05ad11f5832bd91c0393de7ee031e3c4195bce3256c5ace515e49f622be7d3"},
		{"names-plain", mwl.Problem{Graph: hashGoldenGraph(t, "x0", "acc_1", "y-2 z"), Lambda: 12}, "42d0e6c3dbfaaa186342706428f3fbf60d279857b06663c1fb0837092de9a3f2"},
		{"names-html", mwl.Problem{Graph: hashGoldenGraph(t, "a<b", "c&d", "e>f"), Lambda: 12}, "e6eeab7e437dd41bda4d3d296dffc883e58fef6c859a0a9ffc66ba644bea34b9"},
		{"names-escapes", mwl.Problem{Graph: hashGoldenGraph(t, `q"uote`, `back\slash`, "tab\there", "nl\n", "del\x7f"), Lambda: 12}, "5e1e3a43193343de0367ec2b9ca90932d0a33e3c93d6e80ed501d1ebb89da7b8"},
		{"names-unicode", mwl.Problem{Graph: hashGoldenGraph(t, "naïve", "µ", "sep\u2028", "bad\xff"), Lambda: 12}, "c35f1f9713cc628e23a302e10a346ec1d2e8764bc1a897f81ee22f8c109b7694"},
		{"library", mwl.Problem{Graph: tgff(6, 3), Lambda: 30,
			Library: mwl.LibrarySpec{AdderLatency: 1, MulBitsPerCycle: 4, AdderAreaPerBit: 3, MulAreaScale: 2}}, "f0c6ae56a623381b980b2202f481dbd024f65232f91c771cedd5bb502da926bd"},
		{"ilp-options", mwl.Problem{Method: "ilp", Graph: tgff(8, 7), Lambda: 30,
			Options: mwl.SolveOptions{TimeLimit: 2 * time.Second, NodeLimit: 1000, Limits: map[string]int{"mul": 2, "add": 1}}}, "d42de115057f36b677a6c278e680bb9537927fd9be22121289ccfd85a5b476d7"},
		{"dpalloc-limits", mwl.Problem{Graph: tgff(12, 5), Lambda: 40,
			Options: mwl.SolveOptions{Limits: map[string]int{"add": 3}}}, "aadd476f05018595c6482fefcc149b488c1375211afc696cef5fe95afec9bc6e"},
		{"anneal", mwl.Problem{Method: "anneal", Graph: tgff(9, 4), Lambda: 35,
			Options: mwl.SolveOptions{Seed: 42, AnnealMoves: 5000, AnnealInitTemp: 12.5, AnnealCooling: 0.9}}, "4808d5bcc8dae0b6bf2496020273a7a78867f091b1ec6be3c14d7a41ffff4774"},
		{"portfolio", mwl.Problem{Method: "portfolio", Graph: tgff(7, 6), Lambda: 28,
			Options: mwl.SolveOptions{Portfolio: []string{"dpalloc", "twostage", "anneal"}}}, "735dfe0ae110eaa749b369069886432f2c114762db56ee604690c8635cbc80fc"},
		{"pipelined", mwl.Problem{Method: "pipelined", Graph: tgff(8, 8), Lambda: 30, II: 6}, "4aa85b688c4db08197740daa2ffed06475c5fabbff2c4976013fdd6b74d97218"},
		{"incumbent", mwl.Problem{Method: "optimal", Graph: hashGoldenGraph(t, "m", "a"), Lambda: 10,
			Options: mwl.SolveOptions{Incumbent: incumbent, NodeLimit: 50}}, "be171e858b9da1876c4ae009f36d68921627882d3a795b6fef7d2550cf602f99"},
		{"negative-time-limit", mwl.Problem{Method: "ilp", Graph: tgff(4, 9), Lambda: 16,
			Options: mwl.SolveOptions{TimeLimit: -1}}, "79f070c404ace148b2de33d2921ee71dace2cf39da4c67af5c670909d39848ee"},
		// Options holding only empty containers or a negative zero are
		// no options: each hashes as its plain problem does.
		{"empty-limits", mwl.Problem{Graph: tgff(10, 2), Lambda: 30,
			Options: mwl.SolveOptions{Limits: map[string]int{}}}, "a169cd5f1c0979f3f4410f50954cedf675070febfcaaf41b895bd5989512a63a"},
		{"portfolio-default", mwl.Problem{Method: "portfolio", Graph: tgff(7, 6), Lambda: 28}, "a02b20e490890dbfccc8d246e7a7bb13616e2d11cb763cc74594ffdc2f4bdedf"},
		{"empty-portfolio", mwl.Problem{Method: "portfolio", Graph: tgff(7, 6), Lambda: 28,
			Options: mwl.SolveOptions{Portfolio: []string{}}}, "a02b20e490890dbfccc8d246e7a7bb13616e2d11cb763cc74594ffdc2f4bdedf"},
		{"negative-zero-temp", mwl.Problem{Method: "anneal", Graph: tgff(9, 4), Lambda: 35,
			Options: mwl.SolveOptions{AnnealInitTemp: math.Copysign(0, -1)}}, "65c34f5d16b1d9abc4d8f8db416ce54aa600d603f353c729b19df0158d8060cc"},
	}
	for _, c := range cases {
		got, err := c.p.Hash()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: hash %s, want %s", c.name, got, c.want)
		}
	}
	// The same empty options sent on the wire decode to empty, non-nil
	// containers; they must hash as the problem without them.
	graph, err := json.Marshal(tgff(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []string{`{"limits":{}}`, `{"portfolio":[]}`, `{"limits":{},"portfolio":[]}`, `{}`} {
		var p mwl.Problem
		if err := json.Unmarshal([]byte(`{"graph":`+string(graph)+`,"lambda":30,"options":`+opts+`}`), &p); err != nil {
			t.Fatal(err)
		}
		if got, err := p.Hash(); err != nil || got != "a169cd5f1c0979f3f4410f50954cedf675070febfcaaf41b895bd5989512a63a" {
			t.Errorf("decoded options %s: hash %s (%v), want tgff-10's", opts, got, err)
		}
	}
}

// TestSolveOptionsIsZeroSeesEveryField: SolveOptions.IsZero lists the
// knobs by hand, so a knob added without it would make options holding
// only that knob encode as none — two problems with one hash. Setting
// any one field must make the options non-zero.
func TestSolveOptionsIsZeroSeesEveryField(t *testing.T) {
	typ := reflect.TypeOf(mwl.SolveOptions{})
	for i := 0; i < typ.NumField(); i++ {
		var o mwl.SolveOptions
		f := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.Map:
			m := reflect.MakeMap(f.Type())
			m.SetMapIndex(reflect.New(f.Type().Key()).Elem(), reflect.New(f.Type().Elem()).Elem())
			f.Set(m)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("field %s: kind %s not covered by this test", typ.Field(i).Name, f.Kind())
		}
		if o.IsZero() {
			t.Errorf("options with only %s set report IsZero", typ.Field(i).Name)
		}
	}
	if !(mwl.SolveOptions{}).IsZero() {
		t.Error("zero options report non-zero")
	}
}
