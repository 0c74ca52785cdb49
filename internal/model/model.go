// Package model defines the hardware cost model for multiple-wordlength
// datapath allocation: operation types, wordlength signatures, concrete
// resource kinds, and the latency/area functions the paper assumes
// (adders cost 2 cycles at any width; an n×m-bit multiplier costs
// ⌈(n+m)/8⌉ cycles at the SONIC platform clock rate).
//
// All three allocation methods in this repository (the DPAlloc heuristic,
// the two-stage baseline and the ILP optimum) share one Library value, so
// area comparisons between them are internally consistent.
package model

import (
	"fmt"
	"sort"
)

// OpType identifies the functional class of an operation or resource.
type OpType uint8

// The operation types of the paper's examples. Sub shares adder hardware.
const (
	Add OpType = iota
	Sub
	Mul
	numOpTypes
)

// NumOpTypes is the count of distinct operation types.
const NumOpTypes = int(numOpTypes)

// String returns the conventional short name of the type.
func (t OpType) String() string {
	switch t {
	case Add:
		return "add"
	case Sub:
		return "sub"
	case Mul:
		return "mul"
	default:
		return fmt.Sprintf("OpType(%d)", uint8(t))
	}
}

// HardwareClass maps an operation type to the resource class that executes
// it. Add and Sub share adder hardware; Mul uses multipliers.
func (t OpType) HardwareClass() OpType {
	if t == Sub {
		return Add
	}
	return t
}

// Signature is the wordlength signature of an operation or resource kind.
// For multipliers both operand widths matter and multiplication is
// commutative, so signatures are canonicalised with Hi >= Lo.
// For adders only the operand width matters; Lo is stored equal to Hi so
// that the join operation is uniform across types.
type Signature struct {
	Hi int // larger operand width in bits
	Lo int // smaller operand width in bits
}

// Sig builds a canonical signature from two operand widths.
func Sig(a, b int) Signature {
	if a < b {
		a, b = b, a
	}
	return Signature{Hi: a, Lo: b}
}

// AddSig builds the canonical signature of a width-w adder or addition.
func AddSig(w int) Signature { return Signature{Hi: w, Lo: w} }

// Valid reports whether the signature has positive canonical widths.
func (s Signature) Valid() bool { return s.Lo > 0 && s.Hi >= s.Lo }

// Covers reports whether a resource with signature s can execute an
// operation with signature o: each operand of o must fit in the
// corresponding (canonically ordered) port of s.
func (s Signature) Covers(o Signature) bool {
	return s.Hi >= o.Hi && s.Lo >= o.Lo
}

// Join is the element-wise maximum of two canonical signatures: the
// smallest signature covering both. Note that for canonical inputs the
// result is canonical.
func (s Signature) Join(o Signature) Signature {
	return Signature{Hi: max(s.Hi, o.Hi), Lo: max(s.Lo, o.Lo)}
}

// String renders the signature as "HixLo".
func (s Signature) String() string { return fmt.Sprintf("%dx%d", s.Hi, s.Lo) }

// Kind is a concrete resource-wordlength type: an element of the paper's
// set R, for example "16x16-bit multiplier" or "12-bit adder".
type Kind struct {
	Class OpType // hardware class (Add covers Add and Sub operations)
	Sig   Signature
}

// String renders the kind, e.g. "mul 16x12" or "add 12".
func (k Kind) String() string {
	if k.Class == Add {
		return fmt.Sprintf("add %d", k.Sig.Hi)
	}
	return fmt.Sprintf("%s %s", k.Class, k.Sig)
}

// Covers reports whether the kind can execute an operation of type t with
// signature o ("resources can execute operations up to the wordlength of
// the resource").
func (k Kind) Covers(t OpType, o Signature) bool {
	return k.Class == t.HardwareClass() && k.Sig.Covers(o)
}

// Library is the pluggable hardware cost model. The zero value is not
// usable; construct one with Default or populate every field.
//
// Latency returns the cycle count of a resource kind at the target clock
// rate; it must be monotone non-decreasing under signature covering, and
// >= 1. Area returns the silicon cost of one instance; it must be
// strictly positive and monotone under covering. Both must be safe to
// call from several goroutines at once: large solves and portfolio
// races share one Library between goroutines.
type Library struct {
	Latency func(Kind) int
	Area    func(Kind) int64
}

// Default returns the paper's cost model: adders always take 2 cycles and
// cost their width in area units; an n×m multiplier takes ⌈(n+m)/8⌉
// cycles (the SONIC empirical formula) and costs n·m area units.
func Default() *Library {
	return &Library{
		Latency: func(k Kind) int {
			if k.Class == Add {
				return 2
			}
			return (k.Sig.Hi + k.Sig.Lo + 7) / 8
		},
		Area: func(k Kind) int64 {
			if k.Class == Add {
				return int64(k.Sig.Hi)
			}
			return int64(k.Sig.Hi) * int64(k.Sig.Lo)
		},
	}
}

// OpSpec is the (type, signature) pair of one operation; the input to
// resource-kind extraction.
type OpSpec struct {
	Type OpType
	Sig  Signature
}

// MinKind returns the smallest resource kind that can execute the
// operation: its own signature in its own hardware class.
func (o OpSpec) MinKind() Kind {
	return Kind{Class: o.Type.HardwareClass(), Sig: o.Sig}
}

// OperandWidths returns the bit widths of the operation's two operand
// slots in the repository's fixed-point format convention: a multiplier
// takes its canonically ordered Hi×Lo operands, an adder/subtractor takes
// two same-width words of Hi bits. This is the authoritative statement of
// each operation's data format — the RTL emitter sizes ports and operand
// multiplexers from it, and the netlist analyzer checks emitted modules
// against it.
func (o OpSpec) OperandWidths() [2]int {
	if o.Type.HardwareClass() == Mul {
		return [2]int{o.Sig.Hi, o.Sig.Lo}
	}
	return [2]int{o.Sig.Hi, o.Sig.Hi}
}

// ResultWidth returns the bit width of the operation's result: the
// full-width Hi+Lo product for multiplications, the operand width for
// additions and subtractions (truncating ring arithmetic — the carry out
// of the word is discarded, matching internal/fxsim).
func (o OpSpec) ResultWidth() int {
	if o.Type.HardwareClass() == Mul {
		return o.Sig.Hi + o.Sig.Lo
	}
	return o.Sig.Hi
}

// PortWidths returns the data-port formats of one hardware instance of
// the kind: the two operand widths and the result width. For multipliers
// the output carries the full Hi+Lo-bit product; adders produce a word
// the same width as their operands.
func (k Kind) PortWidths() (a, b, out int) {
	if k.Class == Mul {
		return k.Sig.Hi, k.Sig.Lo, k.Sig.Hi + k.Sig.Lo
	}
	return k.Sig.Hi, k.Sig.Hi, k.Sig.Hi
}

// ExtractKinds computes the resource set R from the operation set, after
// the extraction algorithm of Constantinides et al. (Electronics Letters
// 36(17), reference [5] of the paper): the distinct minimal kinds of the
// operations, closed under element-wise join of signatures within each
// hardware class, so that every useful covering resource type is
// available to the binder. The result is sorted by class, then area
// ascending, then signature, and contains no duplicates.
func ExtractKinds(ops []OpSpec, lib *Library) []Kind {
	seen := make(map[Kind]bool)
	perClass := make(map[OpType][]Signature)
	for _, o := range ops {
		k := o.MinKind()
		if !seen[k] {
			seen[k] = true
			perClass[k.Class] = append(perClass[k.Class], k.Sig)
		}
	}
	// Close each class under pairwise join until fixpoint. The closure of
	// a finite set under join is finite (bounded by the grid of distinct
	// Hi values × distinct Lo values), so this terminates.
	for class, sigs := range perClass {
		work := sigs
		for len(work) > 0 {
			var added []Signature
			for _, a := range work {
				for _, b := range perClass[class] {
					j := a.Join(b)
					k := Kind{Class: class, Sig: j}
					if !seen[k] {
						seen[k] = true
						added = append(added, j)
					}
				}
			}
			perClass[class] = append(perClass[class], added...)
			work = added
		}
	}
	kinds := make([]Kind, 0, len(seen))
	for k := range seen {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool {
		a, b := kinds[i], kinds[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if aa, ba := lib.Area(a), lib.Area(b); aa != ba {
			return aa < ba
		}
		if a.Sig.Hi != b.Sig.Hi {
			return a.Sig.Hi < b.Sig.Hi
		}
		return a.Sig.Lo < b.Sig.Lo
	})
	return kinds
}

// MinLatency returns the latency of the operation on its minimal kind,
// i.e. the fastest the operation can possibly execute.
func MinLatency(o OpSpec, lib *Library) int { return lib.Latency(o.MinKind()) }
