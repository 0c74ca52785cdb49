package sem

import (
	"strings"
	"testing"
)

func newSim(t *testing.T, src string) *Sim {
	t.Helper()
	return NewSim(elaborate(t, src))
}

func mustSet(t *testing.T, s *Sim, port string, v uint64) {
	t.Helper()
	if err := s.Set(port, v); err != nil {
		t.Fatal(err)
	}
}

func mustStep(t *testing.T, s *Sim) {
	t.Helper()
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
}

func mustGet(t *testing.T, s *Sim, net string, want uint64) {
	t.Helper()
	got, err := s.Get(net)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("%s = %d, want %d", net, got, want)
	}
}

// TestSimCounter checks clocked accumulation, reset and width wrap.
func TestSimCounter(t *testing.T) {
	s := newSim(t, `module counter (
  input  wire clk,
  input  wire rst,
  output wire [3:0] y
);
  reg [3:0] c;
  assign y = c;
  always @(posedge clk) begin
    if (rst) c <= 4'd0;
    else c <= c + 4'd1;
  end
endmodule`)
	mustSet(t, s, "rst", 1)
	mustStep(t, s)
	mustSet(t, s, "rst", 0)
	for i := 1; i <= 20; i++ {
		mustStep(t, s)
		mustGet(t, s, "y", uint64(i%16))
	}
}

// TestSimNonBlocking checks that a swap works: both right-hand sides
// evaluate against the pre-edge state before either commits.
func TestSimNonBlocking(t *testing.T) {
	s := newSim(t, `module swap (input wire clk, output wire [3:0] ya, output wire [3:0] yb);
  reg [3:0] a;
  reg [3:0] b;
  reg init;
  assign ya = a;
  assign yb = b;
  always @(posedge clk) begin
    if (!init) begin
      a <= 4'd3;
      b <= 4'd12;
      init <= 1'd1;
    end else begin
      a <= b;
      b <= a;
    end
  end
endmodule`)
	mustStep(t, s) // init
	mustStep(t, s) // swap
	mustGet(t, s, "ya", 12)
	mustGet(t, s, "yb", 3)
}

// TestSimLastWriteWins: of two non-blocking writes to one register in
// one edge, the later statement's value commits.
func TestSimLastWriteWins(t *testing.T) {
	s := newSim(t, `module lww (input wire clk, output wire [3:0] y);
  reg [3:0] r;
  assign y = r;
  always @(posedge clk) begin
    r <= 4'd1;
    r <= 4'd2;
  end
endmodule`)
	mustStep(t, s)
	mustGet(t, s, "y", 2)
}

// TestSimWireChain: wires reading wires settle in dependency order,
// whatever the declaration order.
func TestSimWireChain(t *testing.T) {
	s := newSim(t, `module chain (input wire [3:0] a, output wire [3:0] y);
  assign y = mid;
  wire [3:0] mid = a + 4'd1;
endmodule`)
	mustSet(t, s, "a", 5)
	mustGet(t, s, "y", 6)
}

// TestSimCombinationalCycle: mutually dependent wires are reported as an
// error, not evaluated forever.
func TestSimCombinationalCycle(t *testing.T) {
	s := newSim(t, `module cyc (output wire y);
  wire a = b;
  wire b = a;
  assign y = a;
endmodule`)
	if _, err := s.Get("y"); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("combinational cycle: err = %v", err)
	}
}

// TestSimArithmeticSemantics pins the unsigned modulo behaviour the
// generated datapaths rely on: wrapping subtraction, full-width
// products, truncating part-select, zero-extending concatenation.
func TestSimArithmeticSemantics(t *testing.T) {
	s := newSim(t, `module arith (
  input  wire [7:0] a,
  input  wire [7:0] b,
  output wire [7:0] diff,
  output wire [15:0] prod,
  output wire [3:0] low,
  output wire [11:0] wide
);
  assign diff = a - b;
  assign prod = a * b;
  assign low  = a[3:0];
  assign wide = {4'd0, a};
endmodule`)
	mustSet(t, s, "a", 3)
	mustSet(t, s, "b", 5)
	mustGet(t, s, "diff", 254) // 3-5 mod 256
	mustGet(t, s, "prod", 15)
	mustSet(t, s, "a", 0xAB)
	mustGet(t, s, "low", 0xB)
	mustGet(t, s, "wide", 0xAB)
}

func TestSimTernaryAndLogic(t *testing.T) {
	s := newSim(t, `module pick (
  input  wire s,
  input  wire t,
  input  wire [3:0] a,
  input  wire [3:0] b,
  output wire [3:0] y,
  output wire both
);
  assign y = s ? a : b;
  assign both = s && !t;
endmodule`)
	mustSet(t, s, "a", 7)
	mustSet(t, s, "b", 9)
	mustSet(t, s, "s", 1)
	mustSet(t, s, "t", 0)
	mustGet(t, s, "y", 7)
	mustGet(t, s, "both", 1)
	mustSet(t, s, "s", 0)
	mustGet(t, s, "y", 9)
	mustGet(t, s, "both", 0)
}

func TestSimErrors(t *testing.T) {
	s := newSim(t, `module m (input wire clk, input wire [3:0] a, output wire [3:0] y); assign y = a; endmodule`)
	if err := s.Set("y", 1); err == nil {
		t.Error("Set on an output accepted")
	}
	if err := s.Set("nope", 1); err == nil {
		t.Error("Set on an unknown net accepted")
	}
	if _, err := s.Get("nope"); err == nil {
		t.Error("Get on an unknown net accepted")
	}
}
