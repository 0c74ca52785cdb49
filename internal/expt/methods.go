package expt

import (
	"context"
	"fmt"
	"io"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/portfolio"
	"repro/internal/tgff"
	"repro/internal/twostage"
)

// MethodColumns are the columns of the Methods sweep, in render order:
// the paper's heuristic, the two baselines, the simulated-annealing
// allocator, and the portfolio (the per-graph best of the other four,
// scored with the same winner-selection rule the registered portfolio
// solver uses).
var MethodColumns = []string{"dpalloc", "twostage", "descend", "anneal", "portfolio"}

// MethodsPoint is one (size, relaxation) cell of the Methods sweep: the
// mean functional-unit area per column over the batch, plus how often
// each concrete method won the portfolio race.
type MethodsPoint struct {
	N        int
	Relax    float64
	Graphs   int
	MeanArea map[string]float64
	Wins     map[string]int
}

// Methods runs the Fig. 3–5 style sweep with the post-paper backends as
// extra columns: for every graph each column allocates independently,
// and the portfolio column takes the least-area feasible result —
// quantifying what racing buys over any single method. annealMoves caps
// the annealer's proposal budget per graph (0 = the annealer default);
// the annealer seed derives from cfg.Seed plus the graph index, so the
// sweep is reproducible end to end.
func Methods(ctx context.Context, cfg Config, sizes []int, relaxes []float64, annealMoves int) ([]MethodsPoint, error) {
	cfg = cfg.withDefaults()
	var out []MethodsPoint
	for _, n := range sizes {
		graphs, err := tgff.Batch(n, cfg.Graphs, cfg.Seed, cfg.TGFF)
		if err != nil {
			return nil, err
		}
		for _, relax := range relaxes {
			p := MethodsPoint{
				N: n, Relax: relax,
				MeanArea: make(map[string]float64, len(MethodColumns)),
				Wins:     make(map[string]int),
			}
			sums := make(map[string]int64, len(MethodColumns))
			for gi, g := range graphs {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				lmin, err := g.MinMakespan(cfg.Lib)
				if err != nil {
					return nil, err
				}
				lambda := Lambda(lmin, relax)

				h, _, err := core.AllocateCtx(ctx, g, cfg.Lib, lambda, core.Options{})
				if err != nil {
					return nil, fmt.Errorf("methods dpalloc n=%d: %w", n, err)
				}
				ts, _, err := twostage.AllocateCtx(ctx, g, cfg.Lib, lambda)
				if err != nil {
					return nil, fmt.Errorf("methods twostage n=%d: %w", n, err)
				}
				de, err := twostage.Descend(ctx, g, cfg.Lib, lambda)
				if err != nil {
					return nil, fmt.Errorf("methods descend n=%d: %w", n, err)
				}
				an, _, err := anneal.AllocateCtx(ctx, g, cfg.Lib, lambda, anneal.Options{
					Seed:  cfg.Seed + int64(gi),
					Moves: annealMoves,
				})
				if err != nil {
					return nil, fmt.Errorf("methods anneal n=%d: %w", n, err)
				}

				outs := []portfolio.Outcome{
					{Name: "dpalloc", Area: h.Area(cfg.Lib)},
					{Name: "twostage", Area: ts.Area(cfg.Lib)},
					{Name: "descend", Area: de.Area(cfg.Lib)},
					{Name: "anneal", Area: an.Area(cfg.Lib)},
				}
				for _, o := range outs {
					sums[o.Name] += o.Area
				}
				win := portfolio.Pick(outs)
				sums["portfolio"] += outs[win].Area
				p.Wins[outs[win].Name]++
				p.Graphs++
			}
			if p.Graphs > 0 {
				for _, col := range MethodColumns {
					p.MeanArea[col] = float64(sums[col]) / float64(p.Graphs)
				}
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// WriteMethods renders the sweep: one row per (size, relaxation) with
// the mean area per column, then the portfolio win tally.
func WriteMethods(w io.Writer, pts []MethodsPoint) {
	fmt.Fprintf(w, "Methods: mean FU area per allocator (portfolio = per-graph best)\n")
	fmt.Fprintf(w, "%6s %8s", "|O|", "λ/λmin")
	for _, col := range MethodColumns {
		fmt.Fprintf(w, " %10s", col)
	}
	fmt.Fprintf(w, "  wins\n")
	for _, p := range pts {
		fmt.Fprintf(w, "%6d %8.2f", p.N, 1+p.Relax)
		for _, col := range MethodColumns {
			fmt.Fprintf(w, " %10.1f", p.MeanArea[col])
		}
		fmt.Fprintf(w, " ")
		for _, col := range MethodColumns[:len(MethodColumns)-1] {
			if n := p.Wins[col]; n > 0 {
				fmt.Fprintf(w, " %s=%d", col, n)
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteMethodsCSV renders the sweep for external plotting.
func WriteMethodsCSV(w io.Writer, pts []MethodsPoint) error {
	if _, err := fmt.Fprintf(w, "n,relax,graphs"); err != nil {
		return err
	}
	for _, col := range MethodColumns {
		if _, err := fmt.Fprintf(w, ",%s", col); err != nil {
			return err
		}
	}
	for _, col := range MethodColumns[:len(MethodColumns)-1] {
		if _, err := fmt.Fprintf(w, ",wins_%s", col); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%d,%g,%d", p.N, p.Relax, p.Graphs); err != nil {
			return err
		}
		for _, col := range MethodColumns {
			if _, err := fmt.Fprintf(w, ",%g", p.MeanArea[col]); err != nil {
				return err
			}
		}
		for _, col := range MethodColumns[:len(MethodColumns)-1] {
			if _, err := fmt.Fprintf(w, ",%d", p.Wins[col]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
