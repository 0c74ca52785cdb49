// Package portfolio holds the method-agnostic pieces of the portfolio
// solver: deterministic winner selection among raced outcomes and
// entrant list normalization. The racing itself happens in the root
// package through the Service's bounded batch runner (every entrant is a registered
// method solved under one ctx); the experiment harness reuses Pick to
// score a "portfolio" column without re-running any solver.
package portfolio

import "fmt"

// Outcome is one raced entrant's result: its registry name, the area of
// its solution, and the error that ended it (nil for a feasible
// solution). An Outcome whose entrant never completed (deadline hit
// first) carries that cancellation error.
type Outcome struct {
	Name string
	Area int64
	Err  error
}

// Pick returns the index of the winning outcome: the least area among
// error-free entrants, ties broken by registry name so the winner is
// deterministic regardless of completion order. It returns -1 when no
// entrant produced a solution.
func Pick(outs []Outcome) int {
	win := -1
	for i, o := range outs {
		if o.Err != nil {
			continue
		}
		if win < 0 || o.Area < outs[win].Area ||
			(o.Area == outs[win].Area && o.Name < outs[win].Name) {
			win = i
		}
	}
	return win
}

// Normalize validates an entrant list: empty falls back to defaults,
// duplicates collapse (first occurrence wins, order preserved), and the
// portfolio's own registry name is rejected — a portfolio racing itself
// would recurse without bound.
func Normalize(names, defaults []string, self string) ([]string, error) {
	if len(names) == 0 {
		names = defaults
	}
	seen := make(map[string]bool, len(names))
	out := make([]string, 0, len(names))
	for _, n := range names {
		if n == "" {
			return nil, fmt.Errorf("portfolio: empty entrant name")
		}
		if n == self {
			return nil, fmt.Errorf("portfolio: entrant %q would race the portfolio itself", n)
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("portfolio: no entrants")
	}
	return out, nil
}
