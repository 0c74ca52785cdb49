package rtl_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/fxsim"
	"repro/internal/model"
	"repro/internal/rtl"
	"repro/internal/rtl/netlist"
	"repro/internal/rtl/netlist/sem"
)

// newBench elaborates a module that follows the generator's interface
// contract (inputs clk, rst and start; output done) on the concrete
// simulator and applies one synchronous reset edge.
func newBench(src string) (*sem.Sim, error) {
	m, err := netlist.Parse(src)
	if err != nil {
		return nil, err
	}
	s := sem.NewSim(netlist.Elaborate(m, "bench.v"))
	if err := s.Set("rst", 1); err != nil {
		return nil, err
	}
	if err := s.Step(); err != nil {
		return nil, err
	}
	return s, s.Set("rst", 0)
}

// runIteration drives one iteration: it applies the operands, pulses
// start for one edge and clocks until done rises, returning the number
// of edges after the start pulse. Operands stay applied for the whole
// run, as the generator's contract requires.
func runIteration(s *sem.Sim, in map[string]uint64, maxCycles int) (int, error) {
	for name, v := range in {
		if err := s.Set(name, v); err != nil {
			return 0, err
		}
	}
	if err := s.Set("start", 1); err != nil {
		return 0, err
	}
	if err := s.Step(); err != nil {
		return 0, err
	}
	if err := s.Set("start", 0); err != nil {
		return 0, err
	}
	for cycles := 0; ; cycles++ {
		done, err := s.Get("done")
		if err != nil || done != 0 {
			return cycles, err
		}
		if cycles >= maxCycles {
			return cycles, fmt.Errorf("done did not rise within %d cycles", maxCycles)
		}
		if err := s.Step(); err != nil {
			return cycles, err
		}
	}
}

// simulate runs generated Verilog for `vectors` random input vectors on
// the concrete simulator and compares every sink output with fxsim's
// reference. It returns the first mismatch, or "" when every vector
// matched. Protocol failures — done not rising within makespan+4 edges,
// or rising after a different number of edges than the schedule's
// makespan — fail the test.
func simulate(t *testing.T, src string, g *dfg.Graph, lib *model.Library, dp *datapath.Datapath, rnd *rand.Rand, vectors int) string {
	t.Helper()
	s, err := newBench(src)
	if err != nil {
		t.Fatalf("elaborate: %v\n%s", err, src)
	}
	ins, outs := rtl.Interface(g)
	makespan := dp.Makespan(lib)
	for v := 0; v < vectors; v++ {
		fxIn := make(fxsim.Inputs)
		rtlIn := make(map[string]uint64)
		for _, p := range ins {
			val := rnd.Uint64() & (1<<uint(p.Width) - 1)
			slots := fxIn[p.Op]
			slots[p.Slot] = val
			fxIn[p.Op] = slots
			rtlIn[p.Name] = val
		}
		want, err := fxsim.Reference(g, fxIn)
		if err != nil {
			t.Fatal(err)
		}
		cycles, err := runIteration(s, rtlIn, makespan+4)
		if err != nil {
			t.Fatalf("vector %d: %v\n%s", v, err, src)
		}
		if cycles != makespan {
			t.Fatalf("vector %d: took %d cycles, schedule says %d", v, cycles, makespan)
		}
		for _, p := range outs {
			got, err := s.Get(p.Name)
			if err != nil {
				t.Fatalf("vector %d: %v\n%s", v, err, src)
			}
			if got != want[p.Op] {
				return fmt.Sprintf("vector %d: %s = %d, reference %d", v, p.Name, got, want[p.Op])
			}
		}
	}
	return ""
}

// TestBenchHandshake runs a handwritten module that follows the
// generator's control contract and computes a+b with latency 2.
func TestBenchHandshake(t *testing.T) {
	s, err := newBench(`
module adder (
  input  wire clk,
  input  wire rst,
  input  wire start,
  input  wire [7:0] in_x_0,
  input  wire [7:0] in_x_1,
  output wire [7:0] out_x,
  output reg  done
);
  reg running;
  reg [1:0] cyc;
  reg [7:0] r_x;
  always @(posedge clk) begin
    if (rst) begin
      running <= 1'b0;
      done <= 1'b0;
      cyc <= 2'd0;
    end else if (start && !running) begin
      running <= 1'b1;
      done <= 1'b0;
      cyc <= 2'd0;
    end else if (running) begin
      if (cyc == 2'd1) begin
        running <= 1'b0;
        done <= 1'b1;
      end
      cyc <= cyc + 2'd1;
    end
  end
  reg [7:0] u0_a;
  reg [7:0] u0_b;
  wire [7:0] u0_y = u0_a + u0_b;
  always @(posedge clk) begin
    if (running) begin
      if (cyc == 2'd0) begin
        u0_a <= in_x_0;
        u0_b <= in_x_1;
      end
      if (cyc == 2'd1) begin
        r_x <= u0_y;
      end
    end
  end
  assign out_x = r_x;
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	// The second iteration runs without another reset.
	for _, tc := range []struct{ x0, x1, want uint64 }{{100, 55, 155}, {200, 100, 44}} {
		cycles, err := runIteration(s, map[string]uint64{"in_x_0": tc.x0, "in_x_1": tc.x1}, 10)
		if err != nil {
			t.Fatal(err)
		}
		if cycles != 2 {
			t.Fatalf("took %d cycles, want 2", cycles)
		}
		if got, err := s.Get("out_x"); err != nil || got != tc.want {
			t.Fatalf("out_x = %d (%v), want %d", got, err, tc.want)
		}
	}
}

// TestBenchTimeout: done never rising is reported, not waited on forever.
func TestBenchTimeout(t *testing.T) {
	s, err := newBench(`
module stuck (
  input  wire clk,
  input  wire rst,
  input  wire start,
  output reg  done
);
  always @(posedge clk) begin
    if (rst) done <= 1'b0;
  end
endmodule`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runIteration(s, nil, 5); err == nil {
		t.Fatal("timeout not reported")
	}
}

// TestBenchRejectsWrongInterface: a module without the control ports
// cannot be driven by the protocol.
func TestBenchRejectsWrongInterface(t *testing.T) {
	if _, err := newBench(`module m (input wire clk, output wire y); assign y = 1'd0; endmodule`); err == nil {
		t.Fatal("bench accepted a module without rst/start/done")
	}
}
