package rtl

import (
	"strings"
	"testing"
)

// TestLintDiagnostics is the old textual lint's case table, ported to the
// netlist-IR analyzer: every diagnostic the line-regex lint used to catch
// must still be caught (with the same message substrings), and every
// construct it deliberately accepted must still be accepted. wantErr is a
// substring of the expected finding; empty means the source must be
// clean.
func TestLintDiagnostics(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantErr string
	}{
		{
			name: "clean module",
			src: `module m (
  input  wire clk,
  input  wire [7:0] a,
  output wire [7:0] y
);
  reg [7:0] r;
  always @(posedge clk) begin
    r <= a;
  end
  assign y = r;
endmodule
`,
		},
		{
			name:    "undeclared identifier",
			src:     "module m (\n  input wire clk\n);\n  assign x = y;\nendmodule\n",
			wantErr: "undeclared identifier",
		},
		{
			name:    "unbalanced begin",
			src:     "module m (\n  input wire clk\n);\n  always @(posedge clk) begin\nendmodule\n",
			wantErr: "begin/end unbalanced",
		},
		{
			name:    "negative bit index",
			src:     "module m (\n  input wire [-1:0] x\n);\nendmodule\n",
			wantErr: "negative bit index",
		},
		{
			name:    "missing endmodule",
			src:     "module m (\n  input wire clk\n);\n",
			wantErr: "missing endmodule",
		},
		{
			name: "nonblocking width mismatch",
			src: `module m (
  input wire clk,
  input wire [7:0] a
);
  reg [3:0] r;
  always @(posedge clk) begin
    r <= a;
  end
endmodule
`,
			wantErr: "bus width mismatch: lhs is 4 bits, rhs is 8 bits",
		},
		{
			name: "assign width mismatch",
			src: `module m (
  input  wire [3:0] a,
  output wire [7:0] y
);
  assign y = a;
endmodule
`,
			wantErr: "bus width mismatch: lhs is 8 bits, rhs is 4 bits",
		},
		{
			name: "wire initializer width mismatch",
			src: `module m (
  input wire [7:0] a
);
  wire [3:0] w = a;
endmodule
`,
			wantErr: "bus width mismatch",
		},
		{
			name: "sized literal width mismatch",
			src: `module m (
  input wire clk
);
  reg [3:0] cyc;
  always @(posedge clk) begin
    cyc <= 5'd0;
  end
endmodule
`,
			wantErr: "bus width mismatch: lhs is 4 bits, rhs is 5 bits",
		},
		{
			name: "explicit part-select truncation is sanctioned",
			src: `module m (
  input wire clk,
  input wire [7:0] a
);
  reg [3:0] r;
  always @(posedge clk) begin
    r <= a[3:0];
  end
endmodule
`,
		},
		{
			name: "bit select is one bit",
			src: `module m (
  input wire clk,
  input wire [7:0] a
);
  reg r;
  always @(posedge clk) begin
    r <= a[7];
  end
endmodule
`,
		},
		{
			name: "wrong-width part-select still flagged",
			src: `module m (
  input  wire [7:0] a,
  output wire [3:0] y
);
  assign y = a[4:0];
endmodule
`,
			wantErr: "bus width mismatch: lhs is 4 bits, rhs is 5 bits",
		},
		{
			// The old lint skipped compound right-hand sides wholesale;
			// the interval analysis instead proves this one safe (two
			// 4-bit values cannot exceed 8 bits when added).
			name: "compound rhs stays clean",
			src: `module m (
  input  wire [3:0] a,
  output wire [7:0] y
);
  assign y = a + a;
endmodule
`,
		},
		{
			// Likewise: a {4'b0, a} concatenation is exactly 8 bits.
			name: "concatenation rhs stays clean",
			src: `module m (
  input  wire [3:0] a,
  output wire [7:0] y
);
  assign y = {4'b0, a};
endmodule
`,
		},
		{
			name: "comparison in condition is not a connection",
			src: `module m (
  input wire clk,
  input wire [7:0] a
);
  reg [7:0] r;
  reg flag;
  always @(posedge clk) begin
    if (a <= 8'd3) begin
      flag <= 1'b1;
    end
    r <= a;
  end
endmodule
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags, err := Analyze(tc.src, AnalyzeOptions{})
			if err != nil {
				if tc.wantErr == "" || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want %q, got parse error: %v", tc.wantErr, err)
				}
				return
			}
			if tc.wantErr == "" {
				if len(diags) > 0 {
					t.Fatalf("want clean, got: %v", diags)
				}
				return
			}
			for _, d := range diags {
				if strings.Contains(d.Message, tc.wantErr) {
					return
				}
			}
			t.Fatalf("want a finding containing %q, got: %v", tc.wantErr, diags)
		})
	}
}
