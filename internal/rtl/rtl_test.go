package rtl

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/tgff"
	"repro/internal/workloads"
)

func allocate(t *testing.T, d *dfg.Graph, relaxNum, relaxDen int) (*model.Library, *datapath.Datapath) {
	t.Helper()
	lib := model.Default()
	lmin, err := d.MinMakespan(lib)
	if err != nil {
		t.Fatal(err)
	}
	lambda := lmin + lmin*relaxNum/relaxDen
	dp, _, err := core.Allocate(d, lib, lambda, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return lib, dp
}

// requireClean runs the structural analysis suite over src and fails on
// any finding.
func requireClean(t *testing.T, src string) {
	t.Helper()
	diags, err := Analyze(src, AnalyzeOptions{})
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	if len(diags) > 0 {
		t.Fatalf("analyzer findings:\n%v\n%s", diags, src)
	}
}

func TestGenerateFig1(t *testing.T) {
	g := workloads.Fig1()
	lib, dp := allocate(t, g, 1, 2)
	src, err := Generate("fig1_datapath", g, lib, dp)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, src)
	for _, want := range []string{
		"module fig1_datapath",
		"input  wire clk",
		"output reg  done",
		"endmodule",
		"u0_y",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q", want)
		}
	}
	// Sink op a3 must be an output.
	if !strings.Contains(src, "out_a3") {
		t.Error("missing sink output port out_a3")
	}
	// Shared units: fewer units than operations.
	units := strings.Count(src, "_a;")
	if units >= g.N() {
		t.Errorf("no sharing visible: %d units for %d ops", units, g.N())
	}
}

func TestGenerateRandomGraphsLint(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g, err := tgff.Generate(tgff.Config{N: 12, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lib, dp := allocate(t, g, 1, 4)
		src, err := Generate("dp", g, lib, dp)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireClean(t, src)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := workloads.Fig1()
	lib, dp := allocate(t, g, 1, 2)
	a, err := Generate("m", g, lib, dp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("m", g, lib, dp)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("generation not deterministic")
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	g := workloads.Fig1()
	lib, dp := allocate(t, g, 1, 2)
	if _, err := Generate("1bad", g, lib, dp); err == nil {
		t.Error("invalid module name accepted")
	}
	// Corrupt the datapath: must refuse.
	bad := *dp
	bad.Start = append([]int(nil), dp.Start...)
	bad.Start[0] = -1
	if _, err := Generate("m", g, lib, &bad); err == nil {
		t.Error("illegal datapath accepted")
	}
}

func TestGenerateRejectsDuplicateLabels(t *testing.T) {
	d := dfg.New()
	d.AddOp("x", model.Add, model.AddSig(8))
	d.AddOp("x", model.Add, model.AddSig(8))
	lib, dp := allocate(t, d, 1, 1)
	if _, err := Generate("m", d, lib, dp); err == nil {
		t.Error("duplicate labels accepted")
	}
}

func TestSubtractionUnits(t *testing.T) {
	d := dfg.New()
	d.AddOp("s", model.Sub, model.AddSig(8))
	lib, dp := allocate(t, d, 0, 1)
	src, err := Generate("m", d, lib, dp)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, src)
	if !strings.Contains(src, "u0_sub <= 1'b1") {
		t.Error("subtraction not driven")
	}
	if !strings.Contains(src, "? (u0_a - u0_b) : (u0_a + u0_b)") {
		t.Error("add/sub unit body missing")
	}
}

func TestCounterWidth(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 15: 4, 16: 5}
	for ms, want := range cases {
		if got := counterWidth(ms); got != want {
			t.Errorf("counterWidth(%d) = %d, want %d", ms, got, want)
		}
	}
}

func TestSanitize(t *testing.T) {
	if sanitize("s0.b0x") != "s0_b0x" {
		t.Errorf("sanitize: %q", sanitize("s0.b0x"))
	}
	if sanitize("") != "x" {
		t.Error("empty name")
	}
}
