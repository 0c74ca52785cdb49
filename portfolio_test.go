// Tests for the "portfolio" method: racing semantics, degenerate
// single-entrant behaviour, entrant validation, and — mirroring the
// batch-runner tests — prompt cancellation of losers with a bounded
// goroutine footprint.
package mwl_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	mwl "repro"
)

func portfolioProblem(t *testing.T, n int, seed int64) mwl.Problem {
	t.Helper()
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	return mwl.Problem{Method: "portfolio", Graph: g, Lambda: lmin + 3}
}

// TestPortfolioSingleMethodDegradesExactly: a portfolio of one method is
// that method — same datapath, same numbers — just wearing the
// portfolio envelope.
func TestPortfolioSingleMethodDegradesExactly(t *testing.T) {
	p := portfolioProblem(t, 9, 31)
	p.Options.Portfolio = []string{"twostage"}
	got, err := mwl.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	q := p
	q.Method = "twostage"
	q.Options.Portfolio = nil
	want, err := mwl.Solve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Datapath, want.Datapath) {
		t.Fatal("single-entrant portfolio datapath differs from the method's own")
	}
	if got.Area != want.Area || got.Makespan != want.Makespan {
		t.Fatalf("numbers differ: portfolio (%d, %d) vs direct (%d, %d)",
			got.Area, got.Makespan, want.Area, want.Makespan)
	}
	if got.Method != "portfolio" || got.Stats.Winner != "twostage" {
		t.Fatalf("envelope wrong: method %q winner %q", got.Method, got.Stats.Winner)
	}
	if !strings.Contains(exposition(mwl.NewService(1)), `mwld_portfolio_wins_total{method="twostage"} `) {
		t.Fatal("win not recorded on mwld_portfolio_wins_total")
	}
}

// TestPortfolioCancelsLosersAtDeadline: with a race deadline, the
// portfolio returns the best completed solution, the blocked loser
// observes cancellation promptly, and no goroutines outlive the solve.
func TestPortfolioCancelsLosersAtDeadline(t *testing.T) {
	entered := make(chan struct{}, 4)
	canceled := make(chan struct{}, 4)
	setBatchStub(t, func(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
		entered <- struct{}{}
		<-ctx.Done()
		canceled <- struct{}{}
		return mwl.Solution{}, ctx.Err()
	})
	p := portfolioProblem(t, 8, 47)
	p.Options.Portfolio = []string{"dpalloc", "test-batch-stub"}
	p.Options.TimeLimit = 150 * time.Millisecond

	base := runtime.NumGoroutine()
	t0 := time.Now()
	sol, err := mwl.Solve(context.Background(), p)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Winner != "dpalloc" {
		t.Fatalf("winner %q, want dpalloc", sol.Stats.Winner)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("race took %v: loser not cancelled at the %v deadline", elapsed, p.Options.TimeLimit)
	}
	select {
	case <-entered:
	default:
		t.Fatal("loser never started")
	}
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("loser never observed cancellation")
	}
	// The batch runner drains its workers before Solve returns, so the
	// goroutine count settles back to the pre-race baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base+4 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base+4 {
		t.Fatalf("%d goroutines after the race (baseline %d): losers leaked", g, base)
	}
}

// TestPortfolioParentCancellation: cancelling the caller's ctx while
// every entrant is still running unwinds the whole race with ctx.Err().
func TestPortfolioParentCancellation(t *testing.T) {
	entered := make(chan struct{}, 4)
	setBatchStub(t, func(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
		entered <- struct{}{}
		<-ctx.Done()
		return mwl.Solution{}, ctx.Err()
	})
	p := portfolioProblem(t, 8, 53)
	p.Options.Portfolio = []string{"test-batch-stub"}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := mwl.Solve(ctx, p)
		done <- err
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("portfolio did not unwind after parent cancellation")
	}
}

// TestPortfolioDeadlineWithNoFinisher: when nothing completes before
// the race deadline, the failure says so rather than inventing an
// answer.
func TestPortfolioDeadlineWithNoFinisher(t *testing.T) {
	setBatchStub(t, func(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
		<-ctx.Done()
		return mwl.Solution{}, ctx.Err()
	})
	p := portfolioProblem(t, 8, 59)
	p.Options.Portfolio = []string{"test-batch-stub"}
	p.Options.TimeLimit = 50 * time.Millisecond
	_, err := mwl.Solve(context.Background(), p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestPortfolioRejectsBadEntrants(t *testing.T) {
	p := portfolioProblem(t, 7, 61)
	p.Options.Portfolio = []string{"no-such-method"}
	if _, err := mwl.Solve(context.Background(), p); !errors.Is(err, mwl.ErrUnknownMethod) {
		t.Fatalf("unknown entrant: err = %v", err)
	}
	p.Options.Portfolio = []string{"portfolio"}
	if _, err := mwl.Solve(context.Background(), p); !errors.Is(err, mwl.ErrInvalidProblem) {
		t.Fatalf("recursive entrant: err = %v", err)
	}
	p.Options.Portfolio = nil
	p.Graph = nil
	if _, err := mwl.Solve(context.Background(), p); !errors.Is(err, mwl.ErrInvalidProblem) {
		t.Fatalf("graphless problem: err = %v", err)
	}
}

// TestPortfolioInfeasibleClassification: when every entrant proves the
// problem infeasible, the portfolio's verdict classifies as infeasible
// too (the 422 path end to end).
func TestPortfolioInfeasibleClassification(t *testing.T) {
	p := portfolioProblem(t, 7, 67)
	p.Lambda = 1 // below λ_min for any graph with a multiply
	p.Options.Portfolio = []string{"dpalloc", "twostage"}
	_, err := mwl.Solve(context.Background(), p)
	if err == nil || !mwl.IsInfeasible(err) {
		t.Fatalf("err = %v, want infeasible", err)
	}
}
