package sem

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/rtl/netlist"
)

// Spec is one proof obligation set for a module: how long to unroll,
// what the environment drives, where the registers start, and which net
// must hold which symbolic value after which clock edge.
type Spec struct {
	// Cycles is the number of clock edges to unroll (the schedule's
	// makespan for generated datapaths).
	Cycles int
	// Inputs gives each input port's value, held stable across the whole
	// unrolling (the generated module's protocol: operands are applied
	// before start and held). Control inputs (rst, start) are typically
	// concrete constants; data ports free variables. Ports not listed
	// become free variables on first read.
	Inputs map[string]*Node
	// Init is the register state entering cycle 0 (for generated
	// modules: the concrete controller state just after the start edge —
	// running=1, cyc=0, done=0). Registers not listed start as fresh
	// free variables, i.e. "unknown power-up value".
	Init map[string]*Node
	// Checks are the obligations, each verified in the state after its
	// cycle's clock edge commits.
	Checks []Check
}

// Check requires net Net to hold exactly Want after clock edge Cycle.
type Check struct {
	Net   string
	Cycle int
	Want  *Node
	Label string // what the value is, named in diagnostics
}

// Prove unrolls the design for spec.Cycles clock edges and verifies
// every check by canonical-DAG identity. It returns one diagnostic per
// failed or undecidable obligation (analyzer "equiv"), empty when every
// obligation is proved. Anything outside the provable subset — a
// control condition that does not fold to a constant, an operator with
// no word-level model, a part-select above bit 0 — yields a "cannot
// prove" diagnostic rather than a pass: the checker never vouches for
// what it could not decide.
func Prove(d *netlist.Design, b *Builder, spec Spec) (diags []netlist.Diag) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(budgetExceeded); ok {
				diags = []netlist.Diag{{File: d.File, Line: d.Module.Line, Analyzer: "equiv",
					Message: "cannot prove: symbolic expression growth exceeds the prover's budget"}}
				return
			}
			panic(r)
		}
	}()

	u := newUnroller(d, b)
	for name, v := range spec.Inputs {
		u.inputs[name] = v
	}
	for name, v := range spec.Init {
		u.state[name] = v
	}
	byCycle := map[int][]Check{}
	for _, c := range spec.Checks {
		if c.Cycle < 0 || c.Cycle >= spec.Cycles {
			diags = append(diags, u.diag(d.Module.Line, c.Net,
				"cannot prove: obligation for %q at cycle %d is outside the %d-cycle unrolling", c.Net, c.Cycle, spec.Cycles))
			continue
		}
		byCycle[c.Cycle] = append(byCycle[c.Cycle], c)
	}

	for t := 0; t < spec.Cycles; t++ {
		if err := u.step(); err != nil {
			diags = append(diags, u.diag(err.line, err.net,
				"cannot prove: %s (cycle %d is outside the provable subset)", err.msg, t))
			return diags
		}
		for _, c := range byCycle[t] {
			got, err := u.valueOf(c.Net)
			if err != nil {
				diags = append(diags, u.diag(err.line, c.Net,
					"cannot prove %s: %s", c.Label, err.msg))
				continue
			}
			if got != c.Want {
				line := d.Module.Line
				if n := d.Nets[c.Net]; n != nil {
					line = n.Line
				}
				diags = append(diags, u.diag(line, c.Net,
					"%q diverges from %s at cycle %d: module holds %s, reference requires %s",
					c.Net, c.Label, t, got, c.Want))
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// unroller is the per-run evaluation state.
type unroller struct {
	d      *netlist.Design
	b      *Builder
	inputs map[string]*Node
	state  map[string]*Node // register values after the last edge
	wires  map[string]*Node // combinational memo, reset each edge
	stack  map[string]bool  // wire evaluation recursion guard
}

func newUnroller(d *netlist.Design, b *Builder) *unroller {
	return &unroller{d: d, b: b, state: map[string]*Node{}, wires: map[string]*Node{},
		inputs: map[string]*Node{}}
}

// semErr is an internal "outside the provable subset" condition.
type semErr struct {
	line int
	net  string
	msg  string
}

func (e *semErr) Error() string { return fmt.Sprintf("line %d: %s", e.line, e.msg) }

func errf(line int, net, format string, args ...any) *semErr {
	return &semErr{line: line, net: net, msg: fmt.Sprintf(format, args...)}
}

func (u *unroller) diag(line int, net, format string, args ...any) netlist.Diag {
	return netlist.Diag{File: u.d.File, Line: line, Net: net, Analyzer: "equiv",
		Message: fmt.Sprintf(format, args...)}
}

// step executes one clock edge: every always block's statements are
// walked with all control conditions folded concretely, right-hand
// sides evaluated against the pre-edge state, and the writes committed
// together (non-blocking semantics, later statements win).
func (u *unroller) step() *semErr {
	pending := map[string]*Node{}
	for _, al := range u.d.Module.Always {
		if err := u.exec(al.Body, pending); err != nil {
			return err
		}
	}
	for name, v := range pending {
		u.state[name] = v
	}
	u.wires = map[string]*Node{}
	return nil
}

func (u *unroller) exec(stmts []netlist.Stmt, pending map[string]*Node) *semErr {
	for _, s := range stmts {
		switch s := s.(type) {
		case netlist.NonBlocking:
			n := u.d.Nets[s.Target]
			if n == nil {
				return errf(s.Line, s.Target, "assignment to unknown net %q", s.Target)
			}
			v, err := u.eval(s.Expr)
			if err != nil {
				return err
			}
			pending[s.Target] = u.b.Trunc(n.Width, v)
		case netlist.If:
			c, err := u.eval(s.Cond)
			if err != nil {
				return err
			}
			taken, known := constBool(c)
			if !known {
				return errf(s.Cond.Pos(), "", "control condition does not fold to a constant")
			}
			branch := s.Then
			if !taken {
				branch = s.Else
			}
			if err := u.exec(branch, pending); err != nil {
				return err
			}
		}
	}
	return nil
}

// valueOf reads a net in the current (post-edge) state: registers from
// the state table, input ports from the environment, wires through
// their combinational definition.
func (u *unroller) valueOf(name string) (*Node, *semErr) {
	n := u.d.Nets[name]
	if n == nil {
		return nil, errf(u.d.Module.Line, name, "net %q not found in module", name)
	}
	switch {
	case n.Reg:
		if v, ok := u.state[name]; ok {
			return v, nil
		}
		// Never written: an unknown power-up value.
		v := u.b.Trunc(n.Width, u.b.Var(name+"#init", n.Width))
		u.state[name] = v
		return v, nil
	case n.Kind == netlist.NetInput:
		if v, ok := u.inputs[name]; ok {
			return v, nil
		}
		v := u.b.Var(name, n.Width)
		u.inputs[name] = v
		return v, nil
	default:
		return u.wireValue(n)
	}
}

// wireValue lazily evaluates a combinational net from its single assign
// driver, memoized per edge.
func (u *unroller) wireValue(n *netlist.Net) (*Node, *semErr) {
	if v, ok := u.wires[n.Name]; ok {
		return v, nil
	}
	if u.stack[n.Name] {
		return nil, errf(n.Line, n.Name, "combinational cycle through %q", n.Name)
	}
	var def *netlist.Driver
	for i := range n.Drivers {
		if n.Drivers[i].Kind == netlist.DriveAssign {
			if def != nil {
				return nil, errf(n.Line, n.Name, "wire %q has multiple drivers", n.Name)
			}
			def = &n.Drivers[i]
		}
	}
	if def == nil {
		return nil, errf(n.Line, n.Name, "wire %q has no combinational driver", n.Name)
	}
	if u.stack == nil {
		u.stack = map[string]bool{}
	}
	u.stack[n.Name] = true
	v, err := u.eval(def.Expr)
	u.stack[n.Name] = false
	if err != nil {
		return nil, err
	}
	v = u.b.Trunc(n.Width, v)
	u.wires[n.Name] = v
	return v, nil
}

// eval maps a netlist expression to its symbolic value in the current
// state. Control operators must fold concretely; the word-level subset
// (+, -, *, part-selects from bit 0, concatenation, constant shifts)
// stays symbolic.
func (u *unroller) eval(e netlist.Expr) (*Node, *semErr) {
	switch e := e.(type) {
	case netlist.Num:
		return u.b.Const(e.Val), nil
	case netlist.Ref:
		return u.valueOf(e.Name)
	case netlist.Select:
		if e.Lo != 0 {
			return nil, errf(e.Line, "", "part-select above bit 0 has no word-level model")
		}
		x, err := u.eval(e.X)
		if err != nil {
			return nil, err
		}
		return u.b.Trunc(e.Hi+1, x), nil
	case netlist.Unary:
		x, err := u.eval(e.X)
		if err != nil {
			return nil, err
		}
		if e.Op == "!" {
			if v, known := constBool(x); known {
				return u.boolConst(!v), nil
			}
			return nil, errf(e.Line, "", "operand of ! does not fold to a constant")
		}
		if e.Op == "-" && x.op == opConst && x.val.Sign() == 0 {
			return x, nil
		}
		return nil, errf(e.Line, "", "unary %s has no word-level model here", e.Op)
	case netlist.Binary:
		return u.evalBinary(e)
	case netlist.Ternary:
		c, err := u.eval(e.Cond)
		if err != nil {
			return nil, err
		}
		taken, known := constBool(c)
		if !known {
			return nil, errf(e.Line, "", "mux select does not fold to a constant")
		}
		if taken {
			return u.eval(e.Then)
		}
		return u.eval(e.Else)
	case netlist.Concat:
		return u.evalConcat(e)
	default:
		return nil, errf(e.Pos(), "", "unsupported expression form")
	}
}

func (u *unroller) evalBinary(e netlist.Binary) (*Node, *semErr) {
	switch e.Op {
	case "&&", "||":
		x, err := u.eval(e.X)
		if err != nil {
			return nil, err
		}
		if v, known := constBool(x); known {
			// Short-circuit on the decided side.
			if (e.Op == "&&" && !v) || (e.Op == "||" && v) {
				return u.boolConst(v), nil
			}
			y, err := u.eval(e.Y)
			if err != nil {
				return nil, err
			}
			if w, known := constBool(y); known {
				return u.boolConst(w), nil
			}
		}
		return nil, errf(e.Line, "", "logical %s does not fold to a constant", e.Op)
	case "+":
		return u.evalBin2(e, u.b.Add)
	case "-":
		return u.evalBin2(e, u.b.Sub)
	case "*":
		return u.evalBin2(e, u.b.Mul)
	case "==", "!=", "<", ">", "<=", ">=":
		x, err := u.eval(e.X)
		if err != nil {
			return nil, err
		}
		y, err := u.eval(e.Y)
		if err != nil {
			return nil, err
		}
		if x.op == opConst && y.op == opConst {
			c := x.val.Cmp(y.val)
			var v bool
			switch e.Op {
			case "==":
				v = c == 0
			case "!=":
				v = c != 0
			case "<":
				v = c < 0
			case ">":
				v = c > 0
			case "<=":
				v = c <= 0
			default:
				v = c >= 0
			}
			return u.boolConst(v), nil
		}
		if e.Op == "==" && x == y {
			return u.boolConst(true), nil
		}
		return nil, errf(e.Line, "", "comparison %s does not fold to a constant", e.Op)
	case "<<":
		x, err := u.eval(e.X)
		if err != nil {
			return nil, err
		}
		y, err := u.eval(e.Y)
		if err != nil {
			return nil, err
		}
		if y.op == opConst && y.val.BitLen() <= 10 {
			return u.b.Mul(x, u.b.bigConst(pow2(int(y.val.Int64())))), nil
		}
		return nil, errf(e.Line, "", "shift amount does not fold to a constant")
	case ">>", "/", "%", "&", "|", "^":
		x, err := u.eval(e.X)
		if err != nil {
			return nil, err
		}
		y, err := u.eval(e.Y)
		if err != nil {
			return nil, err
		}
		if x.op == opConst && y.op == opConst {
			if v, ok := foldConst(e.Op, x.val, y.val); ok {
				return u.b.bigConst(v), nil
			}
		}
		return nil, errf(e.Line, "", "operator %s has no word-level model here", e.Op)
	default:
		return nil, errf(e.Line, "", "operator %s has no word-level model", e.Op)
	}
}

func (u *unroller) evalBin2(e netlist.Binary, f func(x, y *Node) *Node) (*Node, *semErr) {
	x, err := u.eval(e.X)
	if err != nil {
		return nil, err
	}
	y, err := u.eval(e.Y)
	if err != nil {
		return nil, err
	}
	return f(x, y), nil
}

// evalConcat models {a, b, ...} as the weighted sum of its parts, each
// truncated to its self-determined width: zero-padding folds away to
// the numeric identity.
func (u *unroller) evalConcat(e netlist.Concat) (*Node, *semErr) {
	total := u.b.Const(0)
	shift := 0
	for i := len(e.Parts) - 1; i >= 0; i-- {
		part := e.Parts[i]
		w, err := u.partWidth(part)
		if err != nil {
			return nil, err
		}
		v, err := u.eval(part)
		if err != nil {
			return nil, err
		}
		v = u.b.Trunc(w, v)
		total = u.b.Add(total, u.b.Mul(v, u.b.bigConst(pow2(shift))))
		shift += w
		if shift > 1024 {
			return nil, errf(e.Line, "", "concatenation too wide to model")
		}
	}
	return total, nil
}

// partWidth is the self-determined width of a concat part within the
// emitted subset: sized literals, net references and part-selects.
func (u *unroller) partWidth(e netlist.Expr) (int, *semErr) {
	switch e := e.(type) {
	case netlist.Num:
		if e.Width > 0 {
			return e.Width, nil
		}
		return 0, errf(e.Line, "", "unsized literal inside a concatenation")
	case netlist.Ref:
		if n := u.d.Nets[e.Name]; n != nil {
			return n.Width, nil
		}
		return 0, errf(e.Line, e.Name, "unknown net %q in concatenation", e.Name)
	case netlist.Select:
		return e.Hi - e.Lo + 1, nil
	default:
		return 0, errf(e.Pos(), "", "unsupported concatenation part")
	}
}

func (u *unroller) boolConst(v bool) *Node {
	if v {
		return u.b.Const(1)
	}
	return u.b.Const(0)
}

// constBool decides a node used as a condition: known iff constant.
func constBool(n *Node) (val, known bool) {
	if n.op != opConst {
		return false, false
	}
	return n.val.Sign() != 0, true
}

// foldConst evaluates the residual concrete-only operators.
func foldConst(op string, x, y *big.Int) (*big.Int, bool) {
	switch op {
	case ">>":
		if y.BitLen() > 10 {
			return big.NewInt(0), true
		}
		return new(big.Int).Rsh(x, uint(y.Int64())), true
	case "/":
		if y.Sign() == 0 {
			return nil, false
		}
		return new(big.Int).Div(x, y), true
	case "%":
		if y.Sign() == 0 {
			return nil, false
		}
		return new(big.Int).Mod(x, y), true
	case "&":
		return new(big.Int).And(x, y), true
	case "|":
		return new(big.Int).Or(x, y), true
	case "^":
		return new(big.Int).Xor(x, y), true
	}
	return nil, false
}
