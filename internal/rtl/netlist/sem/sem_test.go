package sem

import (
	"strings"
	"testing"

	"repro/internal/rtl/netlist"
)

// TestCanonicalForm pins the algebraic identities the equiv analyzer's
// soundness argument leans on: semantic equality within the canonical
// fragment must reduce to pointer equality.
func TestCanonicalForm(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	z := b.Var("z", 8)

	if b.Add(x, y) != b.Add(y, x) {
		t.Error("addition is not commutative")
	}
	if b.Mul(x, y) != b.Mul(y, x) {
		t.Error("multiplication is not commutative")
	}
	if b.Add(b.Add(x, y), z) != b.Add(x, b.Add(y, z)) {
		t.Error("addition is not associative")
	}
	if b.Add(x, x) != b.Mul(b.Const(2), x) {
		t.Error("x+x does not collapse to 2*x")
	}
	if b.Add(b.Const(3), b.Const(4)) != b.Const(7) {
		t.Error("constants do not fold under +")
	}
	if b.Mul(b.Const(0), x) != b.Const(0) {
		t.Error("0*x does not fold to 0")
	}
	if b.Sub(x, x) != b.Const(0) {
		t.Error("x-x does not fold to 0")
	}
	if b.Sub(x, b.Const(0)) != x {
		t.Error("x-0 does not fold to x")
	}
}

func TestTruncCanonicalization(t *testing.T) {
	b := NewBuilder()
	x := b.Var("x", 8)
	y := b.Var("y", 8)
	n4 := b.Var("n", 4)

	// Zero-padding is the numeric identity: truncating to a width the
	// value provably fits is a no-op.
	if b.Trunc(8, n4) != n4 {
		t.Error("widening trunc of a 4-bit var did not vanish")
	}
	// Nested truncations collapse to the narrowest.
	if got := b.Trunc(8, b.Trunc(4, x)); got != b.Trunc(4, x) {
		t.Errorf("trunc8(trunc4(x)) = %s, want trunc4(x)", got)
	}
	if got := b.Trunc(4, b.Trunc(8, x)); got != b.Trunc(4, x) {
		t.Errorf("trunc4(trunc8(x)) = %s, want trunc4(x)", got)
	}
	// Ring congruence: a same-width truncation under a + edge inside a
	// truncated context carries no information.
	inner := b.Trunc(8, b.Add(x, y))
	if inner == b.Add(x, y) {
		t.Fatal("trunc8(x+y) folded away; the sum can overflow 8 bits")
	}
	if got := b.Trunc(8, b.Add(inner, z(b))); got != b.Trunc(8, b.Add(b.Add(x, y), z(b))) {
		t.Errorf("inner same-width trunc not stripped: %s", got)
	}
	// Subtraction may wrap, so its truncation is never dropped.
	s := b.Sub(x, y)
	if b.Trunc(8, s) == s {
		t.Error("trunc8(x-y) dropped; difference may be negative")
	}
	// Constant differences fold through the wrap.
	if got := b.Trunc(4, b.Sub(b.Const(1), b.Const(2))); got != b.Const(15) {
		t.Errorf("trunc4(1-2) = %s, want 15", got)
	}
}

func z(b *Builder) *Node { return b.Var("zz", 8) }

func elaborate(t *testing.T, src string) *netlist.Design {
	t.Helper()
	m, err := netlist.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return netlist.Elaborate(m, "test.v")
}

const accModule = `module m (
  input  wire clk,
  input  wire [3:0] a,
  input  wire [3:0] b,
  output wire [3:0] y
);
  reg [3:0] acc;
  always @(posedge clk) begin
    acc <= a + b;
  end
  assign y = acc;
endmodule
`

// TestProveAccumulator proves a one-register module against its obvious
// reference and checks a wrong reference yields a counterexample naming
// the net and cycle.
func TestProveAccumulator(t *testing.T) {
	d := elaborate(t, accModule)
	b := NewBuilder()
	a := b.Var("a", 4)
	bb := b.Var("b", 4)
	want := b.Trunc(4, b.Add(a, bb))
	diags := Prove(d, b, Spec{
		Cycles: 1,
		Inputs: map[string]*Node{"clk": b.Const(0), "a": a, "b": bb},
		Checks: []Check{{Net: "y", Cycle: 0, Want: want, Label: "the sum"}},
	})
	if len(diags) != 0 {
		t.Fatalf("correct obligation not proved: %v", diags)
	}

	b2 := NewBuilder()
	a2 := b2.Var("a", 4)
	bb2 := b2.Var("b", 4)
	wrong := b2.Trunc(4, b2.Sub(a2, bb2))
	diags = Prove(d, b2, Spec{
		Cycles: 1,
		Inputs: map[string]*Node{"clk": b2.Const(0), "a": a2, "b": bb2},
		Checks: []Check{{Net: "y", Cycle: 0, Want: wrong, Label: "the difference"}},
	})
	if len(diags) != 1 {
		t.Fatalf("want one counterexample, got: %v", diags)
	}
	msg := diags[0].String()
	for _, frag := range []string{`"y" diverges`, "at cycle 0", "[equiv]"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("counterexample %q missing %q", msg, frag)
		}
	}
}

// TestProveRegisterPipeline checks cycle accuracy: a two-stage delay
// line holds the input only after the second edge.
func TestProveRegisterPipeline(t *testing.T) {
	src := `module m (
  input  wire clk,
  input  wire [3:0] a,
  output wire [3:0] y
);
  reg [3:0] s0;
  reg [3:0] s1;
  always @(posedge clk) begin
    s0 <= a;
    s1 <= s0;
  end
  assign y = s1;
endmodule
`
	d := elaborate(t, src)
	b := NewBuilder()
	a := b.Var("a", 4)
	diags := Prove(d, b, Spec{
		Cycles: 2,
		Inputs: map[string]*Node{"clk": b.Const(0), "a": a},
		Checks: []Check{{Net: "y", Cycle: 1, Want: a, Label: "the delayed input"}},
	})
	if len(diags) != 0 {
		t.Fatalf("two-edge delay not proved: %v", diags)
	}
	// One edge early the register still holds its power-up value.
	b2 := NewBuilder()
	a2 := b2.Var("a", 4)
	diags = Prove(d, b2, Spec{
		Cycles: 1,
		Inputs: map[string]*Node{"clk": b2.Const(0), "a": a2},
		Checks: []Check{{Net: "y", Cycle: 0, Want: a2, Label: "the delayed input"}},
	})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "diverges") {
		t.Fatalf("premature check did not diverge: %v", diags)
	}
}

// TestProveWireTruncation checks that a combinational net wraps to its
// declared width: a 4-bit sum widened into a 5-bit register must prove
// equal to trunc4(a+b), never to the carry-preserving trunc5(a+b).
func TestProveWireTruncation(t *testing.T) {
	src := `module m (
  input  wire clk,
  input  wire [3:0] a,
  input  wire [3:0] b,
  output wire [4:0] y
);
  wire [3:0] t = a + b;
  reg [4:0] r;
  always @(posedge clk) begin
    r <= t;
  end
  assign y = r;
endmodule
`
	d := elaborate(t, src)
	for _, tc := range []struct {
		width int
		ok    bool
	}{{4, true}, {5, false}} {
		b := NewBuilder()
		a, bb := b.Var("a", 4), b.Var("b", 4)
		diags := Prove(d, b, Spec{
			Cycles: 1,
			Inputs: map[string]*Node{"clk": b.Const(0), "a": a, "b": bb},
			Checks: []Check{{Net: "y", Cycle: 0, Want: b.Trunc(tc.width, b.Add(a, bb)), Label: "the sum"}},
		})
		if tc.ok && len(diags) != 0 {
			t.Errorf("y == trunc%d(a+b) not proved: %v", tc.width, diags)
		}
		if !tc.ok && (len(diags) != 1 || !strings.Contains(diags[0].Message, "diverges")) {
			t.Errorf("y == trunc%d(a+b) not refuted: %v", tc.width, diags)
		}
	}
}

// TestCannotProveSymbolicControl pins the soundness posture: control
// that does not fold to a constant is reported, never assumed.
func TestCannotProveSymbolicControl(t *testing.T) {
	src := `module m (
  input  wire clk,
  input  wire [3:0] a,
  output wire [3:0] y
);
  reg [3:0] r;
  always @(posedge clk) begin
    if (a == 4'd3) begin
      r <= a;
    end
  end
  assign y = r;
endmodule
`
	d := elaborate(t, src)
	b := NewBuilder()
	a := b.Var("a", 4)
	diags := Prove(d, b, Spec{
		Cycles: 1,
		Inputs: map[string]*Node{"clk": b.Const(0), "a": a},
		Checks: []Check{{Net: "y", Cycle: 0, Want: a, Label: "the input"}},
	})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "cannot prove") {
		t.Fatalf("symbolic control must yield a cannot-prove finding, got: %v", diags)
	}
}

// TestBudgetExceeded checks the DoS guard: a squaring chain doubles its
// argument volume per level, and the prover must degrade to a single
// "cannot prove" finding instead of exhausting memory.
func TestBudgetExceeded(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("module m (\n  input  wire clk,\n  input  wire [3:0] a,\n  output wire [3:0] y\n);\n")
	sb.WriteString("  wire [3:0] w0 = a;\n")
	const levels = 30
	for i := 1; i <= levels; i++ {
		// Each level squares the previous: the flattened product's
		// argument list doubles per level.
		sb.WriteString("  wire [3:0] w")
		sb.WriteString(itoa(i))
		sb.WriteString(" = w")
		sb.WriteString(itoa(i - 1))
		sb.WriteString(" * w")
		sb.WriteString(itoa(i - 1))
		sb.WriteString(";\n")
	}
	sb.WriteString("  reg [3:0] r;\n  always @(posedge clk) begin\n    r <= w")
	sb.WriteString(itoa(levels))
	sb.WriteString(";\n  end\n  assign y = r;\nendmodule\n")

	d := elaborate(t, sb.String())
	b := NewBuilder()
	diags := Prove(d, b, Spec{
		Cycles: 1,
		Inputs: map[string]*Node{"clk": b.Const(0)},
		Checks: []Check{{Net: "y", Cycle: 0, Want: b.Const(0), Label: "anything"}},
	})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "prover's budget") {
		t.Fatalf("want one budget finding, got: %v", diags)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
