package rtl

import (
	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/rtl/netlist"
)

// ExpectedWidths derives the wordlength interface specification of the
// generated module from the graph's operation specs: every data port and
// every result register, with the exact bit width the fixed-point formats
// require. This is the contract the netlist analyzer's iface pass holds
// the emitted Verilog to.
func ExpectedWidths(d *dfg.Graph) map[string]int {
	widths := map[string]int{}
	inputs, outputs := Interface(d)
	for _, p := range inputs {
		widths[p.Name] = p.Width
	}
	for _, p := range outputs {
		widths[p.Name] = p.Width
	}
	for o := 0; o < d.N(); o++ {
		id := dfg.OpID(o)
		widths[resultReg(d, id)] = d.Op(id).Spec.ResultWidth()
	}
	return widths
}

// AnalyzeOptions selects how much problem context the analysis runs
// with. Every field is optional; the more is supplied, the more of the
// suite becomes applicable.
type AnalyzeOptions struct {
	// File names the source in diagnostics (defaults to "<verilog>").
	File string
	// Graph, when non-nil, enables the "iface" pass: the module's ports
	// and result registers must carry exactly the widths the graph's
	// operation wordlength specs demand.
	Graph *dfg.Graph
	// Lib and Datapath, together with Graph, enable the "equiv" pass:
	// a symbolic unrolling of the module across the schedule's makespan
	// proving each result register and output port equal to the value
	// the dataflow graph defines for it.
	Lib      *model.Library
	Datapath *datapath.Datapath
}

// Analyze runs the netlist static-analysis suite over Verilog source,
// adding the problem-aware passes (iface, equiv) for whatever context
// the options carry. A correct emitter yields no diagnostics for any
// legal datapath.
func Analyze(src string, opts AnalyzeOptions) ([]netlist.Diag, error) {
	nopts := netlist.Options{File: opts.File}
	if opts.Graph != nil {
		nopts.ExpectedWidths = ExpectedWidths(opts.Graph)
		if opts.Lib != nil && opts.Datapath != nil {
			nopts.Extra = append(nopts.Extra, equivPass(opts.Graph, opts.Lib, opts.Datapath))
		}
	}
	return netlist.Analyze(src, nopts)
}

// AnalyzeGraph generates the module for the datapath and runs the full
// netlist analysis over it — the iface pass against the widths the
// graph's operation specs demand, and the equiv pass proving the module
// computes the graph. A correct emitter yields no diagnostics for any
// legal datapath.
func AnalyzeGraph(moduleName string, d *dfg.Graph, lib *model.Library, dp *datapath.Datapath) ([]netlist.Diag, error) {
	src, err := Generate(moduleName, d, lib, dp)
	if err != nil {
		return nil, err
	}
	return Analyze(src, AnalyzeOptions{
		File:     moduleName + ".v",
		Graph:    d,
		Lib:      lib,
		Datapath: dp,
	})
}
