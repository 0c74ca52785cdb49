package rtl_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/rtl"
	"repro/internal/rtl/netlist"
	"repro/internal/tgff"
	"repro/internal/twostage"
	"repro/internal/workloads"
)

// The mutation suite injects single hardware faults into known-good
// generated modules and requires the equiv analyzer to produce a
// counterexample naming the divergent register and cycle for each. One
// mutation (a one-cycle-late result capture with slack before the first
// consumer) is additionally required to survive the sampling
// differential check — bit-identical outputs on every vector — which is
// exactly the class of bug that motivates a symbolic proof over
// simulation.

// solveFig1 allocates the paper's Fig. 1 section with shared units.
func solveFig1(t *testing.T) (*dfg.Graph, *model.Library, *datapath.Datapath) {
	t.Helper()
	g := workloads.Fig1()
	lib := model.Default()
	lmin, err := g.MinMakespan(lib)
	if err != nil {
		t.Fatal(err)
	}
	dp, _, err := core.Allocate(g, lib, lmin+lmin/2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, lib, dp
}

// mutate parses generated source, applies an AST edit, and prints the
// mutant back to Verilog.
func mutate(t *testing.T, src string, edit func(*netlist.Module) bool) string {
	t.Helper()
	m, err := netlist.Parse(src)
	if err != nil {
		t.Fatalf("golden source does not parse: %v", err)
	}
	if !edit(m) {
		t.Fatalf("mutation found no site in:\n%s", src)
	}
	return netlist.Print(m)
}

// walkLists visits every statement list in every always block.
func walkLists(stmts []netlist.Stmt, f func([]netlist.Stmt)) {
	f(stmts)
	for _, s := range stmts {
		if iff, ok := s.(netlist.If); ok {
			walkLists(iff.Then, f)
			walkLists(iff.Else, f)
		}
	}
}

// swapOperandLatches exchanges the right-hand sides of the first
// adjacent pair of non-blocking writes to the two named registers.
func swapOperandLatches(a, b string) func(*netlist.Module) bool {
	return func(m *netlist.Module) bool {
		done := false
		for ai := range m.Always {
			walkLists(m.Always[ai].Body, func(list []netlist.Stmt) {
				for i := 0; i+1 < len(list) && !done; i++ {
					x, okx := list[i].(netlist.NonBlocking)
					y, oky := list[i+1].(netlist.NonBlocking)
					if okx && oky && x.Target == a && y.Target == b {
						x.Expr, y.Expr = y.Expr, x.Expr
						list[i], list[i+1] = x, y
						done = true
					}
				}
			})
		}
		return done
	}
}

// invertMuxArms swaps the two arms of the ternary defining the named
// wire: every select now routes the opposite input.
func invertMuxArms(wire string) func(*netlist.Module) bool {
	return func(m *netlist.Module) bool {
		for i, as := range m.Assigns {
			if as.Target != wire {
				continue
			}
			tern, ok := as.Expr.(netlist.Ternary)
			if !ok {
				continue
			}
			tern.Then, tern.Else = tern.Else, tern.Then
			m.Assigns[i].Expr = tern
			return true
		}
		return false
	}
}

// delayCapture moves the capture guard of the named result register one
// cycle later: `if (cyc == K) r <= ...` becomes `if (cyc == K+1) ...`.
func delayCapture(reg string) func(*netlist.Module) bool {
	return func(m *netlist.Module) bool {
		done := false
		for ai := range m.Always {
			walkLists(m.Always[ai].Body, func(list []netlist.Stmt) {
				for i, s := range list {
					iff, ok := s.(netlist.If)
					if !ok || done {
						continue
					}
					writes := false
					for _, inner := range iff.Then {
						if nb, ok := inner.(netlist.NonBlocking); ok && nb.Target == reg {
							writes = true
						}
					}
					bin, okb := iff.Cond.(netlist.Binary)
					if !writes || !okb || bin.Op != "==" {
						continue
					}
					num, okn := bin.Y.(netlist.Num)
					if !okn {
						continue
					}
					num.Val++
					bin.Y = num
					iff.Cond = bin
					list[i] = iff
					done = true
				}
			})
		}
		return done
	}
}

// equivFindings runs the full problem-aware analysis over the source
// and returns only the equiv pass's findings.
func equivFindings(t *testing.T, src string, g *dfg.Graph, lib *model.Library, dp *datapath.Datapath) []netlist.Diag {
	t.Helper()
	diags, err := rtl.Analyze(src, rtl.AnalyzeOptions{File: "mutant.v", Graph: g, Lib: lib, Datapath: dp})
	if err != nil {
		t.Fatalf("mutant does not parse: %v\n%s", err, src)
	}
	var eq []netlist.Diag
	for _, d := range diags {
		if d.Analyzer == "equiv" {
			eq = append(eq, d)
		}
	}
	return eq
}

// requireCounterexample asserts the equiv findings include a divergence
// naming the given register at the given cycle.
func requireCounterexample(t *testing.T, eq []netlist.Diag, reg string, cycle int) {
	t.Helper()
	if len(eq) == 0 {
		t.Fatal("mutation produced no equiv finding")
	}
	wantReg := fmt.Sprintf("%q diverges", reg)
	wantCyc := fmt.Sprintf("at cycle %d", cycle)
	for _, d := range eq {
		if strings.Contains(d.Message, wantReg) && strings.Contains(d.Message, wantCyc) {
			return
		}
	}
	t.Fatalf("no counterexample names %s at cycle %d:\n%v", reg, cycle, eq)
}

// TestMutationOperandSwap swaps the operand latches feeding a shared
// subtractor: the module computes b-a where the graph defines a-b.
func TestMutationOperandSwap(t *testing.T) {
	g := dfg.New()
	g.AddOp("s", model.Sub, model.AddSig(8))
	lib := model.Default()
	lmin, err := g.MinMakespan(lib)
	if err != nil {
		t.Fatal(err)
	}
	dp, _, err := core.Allocate(g, lib, lmin, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := rtl.Generate("m", g, lib, dp)
	if err != nil {
		t.Fatal(err)
	}
	if eq := equivFindings(t, src, g, lib, dp); len(eq) != 0 {
		t.Fatalf("unmutated module not proved: %v", eq)
	}
	mut := mutate(t, src, swapOperandLatches("u0_a", "u0_b"))
	wb := dp.Start[0] + lib.Latency(dp.Instances[dp.InstOf[0]].Kind) - 1
	requireCounterexample(t, equivFindings(t, mut, g, lib, dp), "r_s", wb)
	if simulate(t, mut, g, lib, dp, rand.New(rand.NewSource(21)), 6) == "" {
		t.Fatal("operand swap on a subtractor should be visible to sampling")
	}
}

// TestMutationMuxInversion flips the add/sub select arms of the shared
// ALU in the Fig. 1 datapath: every addition becomes a subtraction.
func TestMutationMuxInversion(t *testing.T) {
	g, lib, dp := solveFig1(t)
	src, err := rtl.Generate("m", g, lib, dp)
	if err != nil {
		t.Fatal(err)
	}
	mut := mutate(t, src, invertMuxArms("u0_y"))
	eq := equivFindings(t, mut, g, lib, dp)
	if len(eq) == 0 {
		t.Fatal("inverted mux arms produced no equiv finding")
	}
	found := false
	for _, d := range eq {
		if strings.Contains(d.Message, "diverges") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no divergence counterexample:\n%v", eq)
	}
}

// TestMutationDelayedCapture delays r_m1's writeback by one cycle in
// the Fig. 1 datapath. The functional unit's operands are not
// re-latched until after the late capture and no consumer reads r_m1
// that early, so every output stays bit-identical: the concrete
// simulation against fxsim passes on every vector while the symbolic
// prover pins the divergence at the scheduled writeback cycle. This is
// the acceptance case for proving over sampling.
func TestMutationDelayedCapture(t *testing.T) {
	g, lib, dp := solveFig1(t)
	src, err := rtl.Generate("m", g, lib, dp)
	if err != nil {
		t.Fatal(err)
	}
	mut := mutate(t, src, delayCapture("r_m1"))

	var m1 dfg.OpID = -1
	for _, op := range g.Ops() {
		if op.Name == "m1" {
			m1 = op.ID
		}
	}
	if m1 < 0 {
		t.Fatal("fig1 graph has no op m1")
	}
	wb := dp.Start[m1] + lib.Latency(dp.Instances[dp.InstOf[m1]].Kind) - 1
	requireCounterexample(t, equivFindings(t, mut, g, lib, dp), "r_m1", wb)
	if msg := simulate(t, mut, g, lib, dp, rand.New(rand.NewSource(22)), 8); msg != "" {
		t.Fatalf("delayed capture was visible to sampling (%s); the mutation no longer demonstrates the prover's advantage", msg)
	}
}

// TestEquivDifferentialSlice proves a fixed-seed slice of the random
// allocation suite end to end: 10 graphs across sizes, each allocated
// by all three methods, every generated module proved equivalent to its
// graph with zero findings. This is the sampled slice CI runs.
func TestEquivDifferentialSlice(t *testing.T) {
	lib := model.Default()
	total := 0
	for _, n := range []int{3, 6, 9, 12, 16} {
		graphs, err := tgff.Batch(n, 2, 9011, tgff.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for gi, g := range graphs {
			lmin, err := g.MinMakespan(lib)
			if err != nil {
				t.Fatal(err)
			}
			lambda := lmin + lmin/3
			methods := []struct {
				name string
				dp   func() (*datapath.Datapath, error)
			}{
				{"heuristic", func() (*datapath.Datapath, error) {
					dp, _, err := core.Allocate(g, lib, lambda, core.Options{})
					return dp, err
				}},
				{"twostage", func() (*datapath.Datapath, error) {
					dp, _, err := twostage.Allocate(g, lib, lambda)
					return dp, err
				}},
				{"descend", func() (*datapath.Datapath, error) {
					return twostage.Descend(context.Background(), g, lib, lambda)
				}},
			}
			for _, m := range methods {
				total++
				t.Run(fmt.Sprintf("n=%d/g=%d/%s", n, gi, m.name), func(t *testing.T) {
					dp, err := m.dp()
					if err != nil {
						t.Fatal(err)
					}
					diags, err := rtl.AnalyzeGraph("dut", g, lib, dp)
					if err != nil {
						t.Fatal(err)
					}
					if len(diags) > 0 {
						t.Fatalf("proof failed:\n%v", diags)
					}
				})
			}
		}
	}
	if total != 30 {
		t.Fatalf("slice covers %d problems, want 30", total)
	}
}
