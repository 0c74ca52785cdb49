// Package sem is a cycle-accurate symbolic evaluator over the netlist
// IR: the engine behind the "equiv" analyzer. A single-clock module is
// unrolled edge by edge across a bounded number of cycles; registers
// become per-cycle symbolic states and every combinational expression
// becomes a word-level DAG over unbounded integers with one explicit
// width-sensitive operator, Trunc (keep the low w bits — the value
// modulo 2^w). Nodes are hash-consed and canonicalized on construction,
// so semantic equality of two expressions built through the same
// Builder reduces to pointer equality.
//
// Prove checks obligations over symbolic inputs. Sim drives the same
// unroller with constant inputs and registers, so every node folds to a
// value: a concrete cycle simulator for running test vectors through
// the module.
//
// Canonicalization is deliberately modest — strong enough to close the
// gap between the shapes internal/rtl emits and the reference
// expressions model.Reference builds, and nothing more:
//
//   - + and * are flattened n-ary, constant-folded, and sorted
//     (commutativity and associativity);
//   - repeated addends collapse into coefficient·term, so x+x cannot
//     double the argument list;
//   - Trunc_w(x) is dropped when x is provably non-negative and below
//     2^w (zero-padding is the numeric identity);
//   - nested truncations collapse to the narrowest width;
//   - inside Trunc_w, any Trunc_v with v >= w sitting under +, - and *
//     edges is stripped — a congruence of the ring Z/2^w.
//
// No distributivity, no subtraction normal form, no bit-level
// reasoning: an inequality verdict therefore means "not equal up to
// these rules", which the checker reports as a counterexample
// diagnostic rather than silently passing.
package sem

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
)

type op uint8

const (
	opConst op = iota
	opVar
	opAdd
	opSub
	opMul
	opTrunc
)

// Node is one hash-consed expression DAG node. Nodes are immutable and
// unique per Builder: two structurally equal canonical expressions are
// the same pointer.
type Node struct {
	id   int
	op   op
	w    int      // Trunc: kept width; Var: declared width
	val  *big.Int // Const value (always non-negative)
	name string   // Var name
	args []*Node
	max  *big.Int // inclusive upper bound on the value; nil = unbounded
	sub  bool     // subtree has an untruncated Sub: value may be negative
}

// budgetExceeded aborts construction when the DAG outgrows the budget;
// Prove (and the rtl pass wrapper) recover it into a "cannot prove"
// diagnostic, so adversarial inputs degrade to a finding, not a hang.
type budgetExceeded struct{}

// Builder interns canonical nodes. It implements model.Arith[*Node], so
// model.Reference can build reference DAGs directly.
type Builder struct {
	nodes     map[string]*Node
	stripMemo map[stripKey]*Node
	nextID    int
	work      int
}

type stripKey struct {
	id int
	w  int
}

// maxWork bounds total interned argument volume; beyond it the builder
// panics with budgetExceeded (recovered by Prove into a diagnostic).
const maxWork = 1 << 21

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{nodes: map[string]*Node{}, stripMemo: map[stripKey]*Node{}}
}

func (b *Builder) intern(key string, n *Node) *Node {
	if have, ok := b.nodes[key]; ok {
		return have
	}
	b.work += 1 + len(n.args)
	if b.work > maxWork {
		panic(budgetExceeded{})
	}
	n.id = b.nextID
	b.nextID++
	b.nodes[key] = n
	return n
}

// Const interns a small non-negative constant.
func (b *Builder) Const(v uint64) *Node { return b.bigConst(new(big.Int).SetUint64(v)) }

func (b *Builder) bigConst(v *big.Int) *Node {
	if v.Sign() < 0 {
		// Callers only fold non-negative values; a negative constant
		// would poison max-bound reasoning.
		panic(fmt.Sprintf("sem: negative constant %v", v))
	}
	v = new(big.Int).Set(v)
	return b.intern("c|"+v.String(), &Node{op: opConst, val: v, max: v})
}

// Var interns a free symbolic variable of the given declared width: its
// value ranges over [0, 2^width).
func (b *Builder) Var(name string, width int) *Node {
	if width < 1 {
		width = 1
	}
	key := fmt.Sprintf("v|%d|%s", width, name)
	return b.intern(key, &Node{op: opVar, w: width, name: name, max: maxOfWidth(width)})
}

// Add returns the canonical sum x + y.
func (b *Builder) Add(x, y *Node) *Node { return b.addN([]*Node{x, y}) }

// Mul returns the canonical product x * y.
func (b *Builder) Mul(x, y *Node) *Node { return b.mulN([]*Node{x, y}) }

// Sub returns the canonical difference x - y. Differences are kept
// binary and conservatively marked possibly-negative, so a Trunc above
// them is never dropped — exactly the emitted RTL's mod-2^w wrap.
func (b *Builder) Sub(x, y *Node) *Node {
	if y.op == opConst && y.val.Sign() == 0 {
		return x
	}
	if x == y {
		return b.Const(0)
	}
	if x.op == opConst && y.op == opConst && x.val.Cmp(y.val) >= 0 {
		return b.bigConst(new(big.Int).Sub(x.val, y.val))
	}
	key := fmt.Sprintf("s|%d|%d", x.id, y.id)
	return b.intern(key, &Node{op: opSub, args: []*Node{x, y}, max: x.max, sub: true})
}

// Trunc returns the canonical Trunc_w(x): x modulo 2^w.
func (b *Builder) Trunc(w int, x *Node) *Node {
	if w < 1 {
		w = 1
	}
	x = b.strip(x, w)
	if x.op == opTrunc && x.w <= w {
		// The inner truncation is at least as narrow; the outer one is
		// a no-op (wider inner truncs were already stripped).
		return x
	}
	if x.op == opConst {
		return b.bigConst(new(big.Int).Mod(x.val, pow2(w)))
	}
	if x.op == opSub && x.args[0].op == opConst && x.args[1].op == opConst {
		d := new(big.Int).Sub(x.args[0].val, x.args[1].val)
		return b.bigConst(d.Mod(d, pow2(w)))
	}
	if !x.sub && x.max != nil && x.max.Cmp(pow2(w)) < 0 {
		return x // provably fits: truncation cannot change the value
	}
	key := fmt.Sprintf("t|%d|%d", w, x.id)
	return b.intern(key, &Node{op: opTrunc, w: w, args: []*Node{x}, max: maxOfWidth(w)})
}

// strip removes every Trunc_v with v >= w reachable from x through
// +, - and * edges (including x itself): inside a w-bit context those
// truncations are congruences of Z/2^w and carry no information.
func (b *Builder) strip(x *Node, w int) *Node {
	key := stripKey{x.id, w}
	if r, ok := b.stripMemo[key]; ok {
		return r
	}
	r := x
	switch x.op {
	case opTrunc:
		if x.w >= w {
			r = b.strip(x.args[0], w)
		}
	case opAdd, opMul:
		args := make([]*Node, len(x.args))
		changed := false
		for i, a := range x.args {
			args[i] = b.strip(a, w)
			changed = changed || args[i] != a
		}
		if changed {
			if x.op == opAdd {
				r = b.addN(args)
			} else {
				r = b.mulN(args)
			}
		}
	case opSub:
		a0, a1 := b.strip(x.args[0], w), b.strip(x.args[1], w)
		if a0 != x.args[0] || a1 != x.args[1] {
			r = b.Sub(a0, a1)
		}
	}
	b.stripMemo[key] = r
	return r
}

// addN builds the canonical n-ary sum: flatten nested sums, fold
// constants, collapse repeated terms into coefficient·term, sort by
// node identity.
func (b *Builder) addN(in []*Node) *Node {
	k := new(big.Int)
	var xs []*Node
	var flatten func(n *Node)
	flatten = func(n *Node) {
		switch n.op {
		case opAdd:
			for _, a := range n.args {
				flatten(a)
			}
		case opConst:
			k.Add(k, n.val)
		default:
			xs = append(xs, n)
		}
	}
	for _, a := range in {
		flatten(a)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].id < xs[j].id })
	var terms []*Node
	for i := 0; i < len(xs); {
		j := i
		for j < len(xs) && xs[j] == xs[i] {
			j++
		}
		if c := j - i; c > 1 {
			terms = append(terms, b.mulN([]*Node{b.Const(uint64(c)), xs[i]}))
		} else {
			terms = append(terms, xs[i])
		}
		i = j
	}
	if k.Sign() != 0 || len(terms) == 0 {
		terms = append(terms, b.bigConst(k))
	}
	if len(terms) == 1 {
		return terms[0]
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].id < terms[j].id })
	max := new(big.Int)
	neg := false
	ids := make([]string, len(terms))
	for i, t := range terms {
		max = boundAdd(max, t.max)
		neg = neg || t.sub
		ids[i] = fmt.Sprint(t.id)
	}
	key := "a|" + strings.Join(ids, ",")
	return b.intern(key, &Node{op: opAdd, args: terms, max: max, sub: neg})
}

// mulN builds the canonical n-ary product: flatten, fold constants,
// sort by node identity.
func (b *Builder) mulN(in []*Node) *Node {
	k := big.NewInt(1)
	var xs []*Node
	var flatten func(n *Node)
	flatten = func(n *Node) {
		switch n.op {
		case opMul:
			for _, a := range n.args {
				flatten(a)
			}
		case opConst:
			k.Mul(k, n.val)
		default:
			xs = append(xs, n)
		}
	}
	for _, a := range in {
		flatten(a)
	}
	if k.Sign() == 0 {
		return b.Const(0)
	}
	if k.Cmp(big.NewInt(1)) != 0 {
		xs = append(xs, b.bigConst(k))
	}
	if len(xs) == 0 {
		return b.bigConst(k)
	}
	if len(xs) == 1 {
		return xs[0]
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].id < xs[j].id })
	max := big.NewInt(1)
	neg := false
	ids := make([]string, len(xs))
	for i, t := range xs {
		max = boundMul(max, t.max)
		neg = neg || t.sub
		ids[i] = fmt.Sprint(t.id)
	}
	key := "m|" + strings.Join(ids, ",")
	return b.intern(key, &Node{op: opMul, args: xs, max: max, sub: neg})
}

// String renders the node for diagnostics, capped so counterexamples
// stay one-line readable.
func (n *Node) String() string {
	var sb strings.Builder
	n.render(&sb)
	s := sb.String()
	const lim = 120
	if len(s) > lim {
		s = s[:lim] + "…"
	}
	return s
}

func (n *Node) render(sb *strings.Builder) {
	if sb.Len() > 160 {
		return
	}
	switch n.op {
	case opConst:
		sb.WriteString(n.val.String())
	case opVar:
		sb.WriteString(n.name)
	case opTrunc:
		fmt.Fprintf(sb, "trunc%d(", n.w)
		n.args[0].render(sb)
		sb.WriteByte(')')
	case opSub:
		sb.WriteByte('(')
		n.args[0].render(sb)
		sb.WriteString(" - ")
		n.args[1].render(sb)
		sb.WriteByte(')')
	case opAdd, opMul:
		sep := " + "
		if n.op == opMul {
			sep = " * "
		}
		sb.WriteByte('(')
		for i, a := range n.args {
			if i > 0 {
				sb.WriteString(sep)
			}
			a.render(sb)
		}
		sb.WriteByte(')')
	}
}

// maxBoundBits caps upper-bound tracking: past it the bound degrades to
// nil ("unbounded"), which only costs a Trunc that could have been
// dropped — never soundness. Without the cap a squaring chain makes
// bound arithmetic itself quadratic in the DAG size.
const maxBoundBits = 1 << 16

func boundAdd(a, b *big.Int) *big.Int {
	if a == nil || b == nil {
		return nil
	}
	r := new(big.Int).Add(a, b)
	if r.BitLen() > maxBoundBits {
		return nil
	}
	return r
}

func boundMul(a, b *big.Int) *big.Int {
	if a == nil || b == nil {
		return nil
	}
	r := new(big.Int).Mul(a, b)
	if r.BitLen() > maxBoundBits {
		return nil
	}
	return r
}

func pow2(w int) *big.Int { return new(big.Int).Lsh(big.NewInt(1), uint(w)) }

func maxOfWidth(w int) *big.Int {
	return new(big.Int).Sub(pow2(w), big.NewInt(1))
}
