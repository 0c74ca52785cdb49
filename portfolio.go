package mwl

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/portfolio"
)

// DefaultPortfolio is the method set the "portfolio" solver races when
// Options.Portfolio is empty: the fast heuristics plus the annealer,
// each attacking the problem with a different algorithm.
func DefaultPortfolio() []string {
	return []string{"anneal", "descend", "dpalloc", "twostage"}
}

// thePortfolio is the registered "portfolio" solver. It races its
// entrants through a private bounded Service — its own worker pool and
// memo, deliberately not shared with any outer Service, so a portfolio
// solve occupying an outer worker slot can never deadlock against its
// own sub-solves. The private memo is process-lived, so it is bounded
// tighter than a user-facing Service: entrant solutions (losers'
// datapaths included) are capped by entries and bytes.
var thePortfolio = &portfolioSolver{svc: NewServiceWith(ServiceOptions{
	CacheEntries: 1024,
	CacheBytes:   32 << 20,
})}

func init() {
	mustRegister("portfolio", "races a configurable subset of registered methods under one ctx; least-area feasible solution wins",
		thePortfolio)
}

// portfolioWins counts the races each method has won process-wide;
// Service.RegisterMetrics shows it.
var portfolioWins metrics.Counter

// portfolioSolver races registered methods under one ctx via the
// Service's bounded batch runner and returns the feasible solution with
// the least area. With Options.TimeLimit set, the race is cut off at
// the deadline: losers are canceled and the best solution completed so
// far is returned, making the portfolio an anytime solver.
type portfolioSolver struct {
	svc *Service
}

//mwlvet:allow ctxpoll -- loops here are O(len(methods)) setup; the race itself runs under rctx via SolveBatchVia below
func (ps *portfolioSolver) Solve(ctx context.Context, p Problem) (Solution, error) {
	if err := ctx.Err(); err != nil {
		return Solution{}, err
	}
	if p.Graph == nil {
		return Solution{}, fmt.Errorf("%w: no graph", ErrInvalidProblem)
	}
	methods, err := portfolio.Normalize(p.Options.Portfolio, DefaultPortfolio(), "portfolio")
	if err != nil {
		return Solution{}, fmt.Errorf("%w: %w", ErrInvalidProblem, err)
	}
	for _, m := range methods {
		if _, ok := Lookup(m); !ok {
			return Solution{}, fmt.Errorf("%w: portfolio entrant %q (registered: %v)", ErrUnknownMethod, m, Methods())
		}
	}

	t0 := time.Now()
	rctx := ctx
	if p.Options.TimeLimit > 0 {
		// The batch runner returns only after every entrant goroutine
		// has drained, so the deadline's cancel also reaps the losers
		// before Solve returns.
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, p.Options.TimeLimit)
		defer cancel()
	}

	subs := make([]Problem, len(methods))
	for i, m := range methods {
		q := p
		q.Method = m
		// Entrants race the bare problem: the portfolio list is the
		// portfolio's own knob, and clearing it keeps each sub-problem's
		// canonical hash identical to a direct solve of that method.
		q.Options.Portfolio = nil
		subs[i] = q
	}
	outs := make([]portfolio.Outcome, len(methods))
	sols := make([]Solution, len(methods))
	ps.svc.SolveBatchVia(rctx, subs, nil, func(i int, r BatchResult) {
		outs[i] = portfolio.Outcome{Name: methods[i], Area: r.Solution.Area, Err: r.Err}
		sols[i] = r.Solution
	})

	win := portfolio.Pick(outs)
	if win < 0 {
		if err := ctx.Err(); err != nil {
			return Solution{}, err
		}
		return Solution{}, portfolioFailure(outs)
	}
	portfolioWins.Add(methods[win], 1)
	sol := sols[win]
	sol.Cached = false
	sol.Method = "portfolio"
	sol.Elapsed = time.Since(t0)
	sol.Stats.Winner = methods[win]
	return sol, nil
}

// portfolioFailure condenses an all-entrants-failed race into one error,
// preferring the most meaningful classification: a method that proved
// the problem infeasible beats a solver fault, which beats the race
// deadline expiring before anyone finished.
func portfolioFailure(outs []portfolio.Outcome) error {
	var infErr, faultErr, ctxErr error
	for _, o := range outs {
		switch {
		case o.Err == nil:
		case IsInfeasible(o.Err):
			if infErr == nil {
				infErr = o.Err
			}
		case errors.Is(o.Err, context.Canceled) || errors.Is(o.Err, context.DeadlineExceeded):
			if ctxErr == nil {
				ctxErr = o.Err
			}
		default:
			if faultErr == nil {
				faultErr = o.Err
			}
		}
	}
	switch {
	case infErr != nil:
		return infErr
	case faultErr != nil:
		return faultErr
	case ctxErr != nil:
		return fmt.Errorf("portfolio: no entrant finished before the race deadline: %w", ctxErr)
	default:
		return errors.New("portfolio: no entrants ran")
	}
}
