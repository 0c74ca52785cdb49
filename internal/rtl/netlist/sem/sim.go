package sem

import (
	"fmt"

	"repro/internal/rtl/netlist"
)

// Sim is a concrete cycle simulator built on the prover's unroller.
// Every input port and register holds a constant node, so each clock
// edge folds to concrete values: the same evaluator that proves a module
// symbolically also runs it on test vectors.
type Sim struct {
	u *unroller
}

// NewSim powers the design up with every register and input port at 0.
func NewSim(d *netlist.Design) *Sim {
	u := newUnroller(d, NewBuilder())
	for name, n := range d.Nets {
		if n.Reg {
			u.state[name] = u.b.Const(0)
		} else if n.Kind == netlist.NetInput {
			u.inputs[name] = u.b.Const(0)
		}
	}
	return &Sim{u: u}
}

// Set drives an input port with v, truncated to the port's width.
func (s *Sim) Set(port string, v uint64) error {
	n := s.u.d.Nets[port]
	if n == nil || n.Kind != netlist.NetInput {
		return fmt.Errorf("sem: %q is not an input port", port)
	}
	s.u.inputs[port] = s.u.b.Trunc(n.Width, s.u.b.Const(v))
	s.u.wires = map[string]*Node{}
	return nil
}

// Step clocks one positive edge.
func (s *Sim) Step() (err error) {
	defer s.recoverBudget(&err)
	if e := s.u.step(); e != nil {
		return e
	}
	return nil
}

// Get reads a net's value in the current state.
func (s *Sim) Get(net string) (v uint64, err error) {
	defer s.recoverBudget(&err)
	n, e := s.u.valueOf(net)
	if e != nil {
		return 0, e
	}
	if n.op != opConst || !n.val.IsUint64() {
		return 0, fmt.Errorf("sem: %q holds %s, not a 64-bit constant", net, n)
	}
	return n.val.Uint64(), nil
}

// recoverBudget turns the builder's budget panic into an error.
func (s *Sim) recoverBudget(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(budgetExceeded); !ok {
			panic(r)
		}
		s.u.stack = nil
		*err = fmt.Errorf("sem: expression growth exceeds the simulator's budget")
	}
}
