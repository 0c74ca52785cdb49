// Tests for the Service layer: worker-pool batching, memoization by
// canonical problem hash, and in-flight deduplication.
package mwl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mwl "repro"
)

// countingSolver wraps a real method and counts invocations; registered
// once under a unique name so tests can observe memoization.
type countingSolver struct {
	calls atomic.Int64
}

func (c *countingSolver) Solve(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
	c.calls.Add(1)
	q := p
	q.Method = "dpalloc"
	return mwl.Solve(ctx, q)
}

var countTestSolver = func() *countingSolver {
	c := &countingSolver{}
	if err := mwl.Register("test-counting", c); err != nil {
		panic(err)
	}
	return c
}()

func TestServiceMemoizesIdenticalProblems(t *testing.T) {
	svc := mwl.NewService(2)
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Method: "test-counting", Graph: g, Lambda: 40}

	before := countTestSolver.calls.Load()
	first, err := svc.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first solve reported Cached")
	}
	second, err := svc.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat solve not served from the memo")
	}
	if got := countTestSolver.calls.Load() - before; got != 1 {
		t.Fatalf("solver ran %d times for identical problems", got)
	}
	second.Cached = false
	if !reflect.DeepEqual(first, second) {
		t.Fatal("memoized solution differs from the original")
	}
	if svc.CacheSize() != 1 {
		t.Fatalf("cache size %d, want 1", svc.CacheSize())
	}
	svc.ClearCache()
	if svc.CacheSize() != 0 {
		t.Fatal("ClearCache left entries")
	}
}

// TestServiceKeyedSolveSharesTheMemo: SolveKeyed under p.Hash() and
// Solve use one cache, and Hit counts a hit exactly as a Solve cache
// hit does, and answers with the same solution, while a miss counts
// nothing.
func TestServiceKeyedSolveSharesTheMemo(t *testing.T) {
	svc := mwl.NewService(1)
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 9, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Method: "test-counting", Graph: g, Lambda: 40}
	key, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := svc.Hit(key, &p); ok {
		t.Fatal("Hit on an empty cache")
	}
	if st := svc.CacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("a Hit miss moved the counters: %+v", st)
	}
	before := countTestSolver.calls.Load()
	first, err := svc.SolveKeyed(context.Background(), key, p)
	if err != nil || first.Cached {
		t.Fatalf("keyed solve: cached=%v err=%v", first.Cached, err)
	}
	hitSol, hit, ok := svc.Hit(key, nil)
	if !ok {
		t.Fatal("Hit after the solve missed")
	}
	second, err := svc.Solve(context.Background(), p)
	if err != nil || !second.Cached {
		t.Fatalf("Solve after SolveKeyed: cached=%v err=%v", second.Cached, err)
	}
	if got := countTestSolver.calls.Load() - before; got != 1 {
		t.Fatalf("solver ran %d times", got)
	}
	if st := svc.CacheStats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits %d misses %d, want 2 and 1", st.Hits, st.Misses)
	}
	// The hit answers with the solved solution's encoding, Cached set.
	cached := first
	cached.Cached = true
	want, err := json.Marshal(cached)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(hit, want) {
		t.Fatalf("Hit bytes\n%s\nwant\n%s", hit, want)
	}
	// ... and hands back the solution Solve's own hit returns.
	if !reflect.DeepEqual(hitSol, second) {
		t.Fatalf("Hit solution %+v, want Solve's hit %+v", hitSol, second)
	}
	second.Cached = false
	if !reflect.DeepEqual(first, second) {
		t.Fatal("the cached solution differs from the solved one")
	}
}

func TestServiceDeduplicatesInFlight(t *testing.T) {
	svc := mwl.NewService(4)
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 12, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Method: "test-counting", Graph: g, Lambda: 50}

	before := countTestSolver.calls.Load()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Solve(context.Background(), p)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if got := countTestSolver.calls.Load() - before; got != 1 {
		t.Fatalf("solver ran %d times for 8 concurrent identical problems", got)
	}
}

func TestServiceBatchOrderAndErrors(t *testing.T) {
	svc := mwl.NewService(3)
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lib := mwl.DefaultLibrary()
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	batch := []mwl.Problem{
		{Graph: g, Lambda: lmin},
		{Graph: g, Lambda: lmin + 2},
		{Method: "no-such-method", Graph: g, Lambda: lmin},
		{Method: "twostage", Graph: g, Lambda: lmin},
		{Graph: g, Lambda: lmin - 1}, // infeasible
	}
	results := svc.SolveBatch(context.Background(), batch)
	if len(results) != len(batch) {
		t.Fatalf("got %d results for %d problems", len(results), len(batch))
	}
	for i, want := range []bool{true, true, false, true, false} {
		if (results[i].Err == nil) != want {
			t.Fatalf("result %d: err = %v, want ok=%v", i, results[i].Err, want)
		}
	}
	if !errors.Is(results[2].Err, mwl.ErrUnknownMethod) {
		t.Fatalf("result 2: %v, want ErrUnknownMethod", results[2].Err)
	}
	if !mwl.IsInfeasible(results[4].Err) {
		t.Fatalf("result 4: %v, want infeasible", results[4].Err)
	}
	if results[0].Solution.Makespan > lmin {
		t.Fatal("tight solve exceeded λ")
	}
}

func TestServiceFailuresAreNotCached(t *testing.T) {
	svc := mwl.NewService(1)
	g := mwl.Fig1Graph()
	p := mwl.Problem{Graph: g, Lambda: 1} // infeasible
	if _, err := svc.Solve(context.Background(), p); err == nil {
		t.Fatal("infeasible problem solved")
	}
	if svc.CacheSize() != 0 {
		t.Fatalf("failure cached: size %d", svc.CacheSize())
	}
}

func TestServiceSkipsMemoForInMemoryLibraries(t *testing.T) {
	svc := mwl.NewService(1)
	g := mwl.Fig1Graph()
	lib := mwl.DefaultLibrary()
	lmin, err := mwl.MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin, Lib: lib}
	for i := 0; i < 2; i++ {
		sol, err := svc.Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Cached {
			t.Fatal("unhashable problem served from memo")
		}
	}
	if svc.CacheSize() != 0 {
		t.Fatalf("unhashable problem cached: size %d", svc.CacheSize())
	}
}

func TestServiceManyDistinctProblems(t *testing.T) {
	svc := mwl.NewService(0)
	var batch []mwl.Problem
	for seed := int64(0); seed < 12; seed++ {
		g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 7, Seed: 100 + seed})
		if err != nil {
			t.Fatal(err)
		}
		lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{"dpalloc", "twostage", "descend"} {
			batch = append(batch, mwl.Problem{Method: m, Graph: g, Lambda: lmin + 3})
		}
	}
	results := svc.SolveBatch(context.Background(), batch)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("problem %d (%s): %v", i, batch[i].Method, r.Err)
		}
		if r.Solution.Datapath == nil {
			t.Fatalf("problem %d: nil datapath", i)
		}
	}
	if svc.CacheSize() != len(batch) {
		t.Fatalf("cache holds %d of %d distinct problems", svc.CacheSize(), len(batch))
	}
}

// blockingThenOKSolver fails its first call when that call's context
// dies, and succeeds afterwards — the shape of a leader being canceled
// out from under its waiters.
type blockingThenOKSolver struct {
	calls atomic.Int64
}

func (b *blockingThenOKSolver) Solve(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
	if b.calls.Add(1) == 1 {
		<-ctx.Done()
		return mwl.Solution{}, ctx.Err()
	}
	q := p
	q.Method = "dpalloc"
	return mwl.Solve(ctx, q)
}

// TestServiceWaiterSurvivesLeaderCancellation: a duplicate request with
// a live context must not inherit the leader's ctx.Err(); it takes over
// the solve instead.
func TestServiceWaiterSurvivesLeaderCancellation(t *testing.T) {
	if err := mwl.Register("test-blocking", &blockingThenOKSolver{}); err != nil {
		t.Fatal(err)
	}
	svc := mwl.NewService(2)
	g := mwl.Fig1Graph()
	p := mwl.Problem{Method: "test-blocking", Graph: g, Lambda: 40}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := svc.Solve(leaderCtx, p)
		leaderDone <- err
	}()
	waiterDone := make(chan error, 1)
	go func() {
		time.Sleep(50 * time.Millisecond) // let the leader claim the entry
		_, err := svc.Solve(context.Background(), p)
		waiterDone <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancelLeader()

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("waiter inherited the leader's fate: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never completed")
	}
}

// ---- bounded batch runner ----

// batchStubFn is the behaviour of the "test-batch-stub" method; tests
// install their own function (tests in this package run sequentially).
var batchStubFn atomic.Value // func(context.Context, mwl.Problem) (mwl.Solution, error)

type batchStubSolver struct{}

func (batchStubSolver) Solve(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
	fn := batchStubFn.Load().(func(context.Context, mwl.Problem) (mwl.Solution, error))
	return fn(ctx, p)
}

func init() {
	if err := mwl.Register("test-batch-stub", batchStubSolver{}); err != nil {
		panic(err)
	}
}

func setBatchStub(t *testing.T, fn func(context.Context, mwl.Problem) (mwl.Solution, error)) {
	t.Helper()
	batchStubFn.Store(fn)
}

// stubBatch builds n distinct problems (distinct hashes via Lambda) all
// solved by the test stub.
func stubBatch(n int) []mwl.Problem {
	out := make([]mwl.Problem, n)
	for i := range out {
		out[i] = mwl.Problem{Method: "test-batch-stub", Lambda: i + 1}
	}
	return out
}

// TestSolveBatchBoundedFanOut is the regression test for the
// goroutine-per-problem bug: a 10k-problem batch against a 4-worker
// service must run on ~4 batch goroutines, not 10k. The stub blocks
// every in-flight solve so the batch is caught mid-stride with all
// workers busy, then the goroutine count is compared against the
// pre-batch baseline.
func TestSolveBatchBoundedFanOut(t *testing.T) {
	const workers, problems = 4, 10_000
	svc := mwl.NewService(workers)
	started := make(chan struct{}, problems)
	release := make(chan struct{})
	setBatchStub(t, func(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
		started <- struct{}{}
		select {
		case <-release:
			return mwl.Solution{Method: "test-batch-stub", Area: int64(p.Lambda)}, nil
		case <-ctx.Done():
			return mwl.Solution{}, ctx.Err()
		}
	})
	base := runtime.NumGoroutine()
	done := make(chan []mwl.BatchResult, 1)
	go func() { done <- svc.SolveBatch(context.Background(), stubBatch(problems)) }()
	for i := 0; i < workers; i++ {
		<-started // all worker slots occupied, batch mid-stride
	}
	if g := runtime.NumGoroutine(); g > base+2*workers+8 {
		t.Fatalf("%d goroutines during a %d-problem batch (baseline %d): fan-out not bounded by the worker count", g, problems, base)
	}
	close(release)
	results := <-done
	if len(results) != problems {
		t.Fatalf("%d results for %d problems", len(results), problems)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("problem %d: %v", i, r.Err)
		}
		if r.Solution.Area != int64(i+1) {
			t.Fatalf("problem %d answered with area %d", i, r.Solution.Area)
		}
	}
}

// TestSolveBatchCancellationStopsSpawning: once the batch context is
// canceled, no further solver runs start — the two in-flight solves
// unwind with ctx.Err() and every remaining problem is reported with
// ctx.Err() without touching the solver.
func TestSolveBatchCancellationStopsSpawning(t *testing.T) {
	const workers, problems = 2, 64
	svc := mwl.NewService(workers)
	var calls atomic.Int64
	entered := make(chan struct{}, problems)
	setBatchStub(t, func(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
		calls.Add(1)
		entered <- struct{}{}
		<-ctx.Done()
		return mwl.Solution{}, ctx.Err()
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		<-entered // both workers are inside the solver
		cancel()
	}()
	results := svc.SolveBatch(ctx, stubBatch(problems))
	if got := calls.Load(); got != workers {
		t.Fatalf("solver ran %d times; want exactly %d (the in-flight solves at cancel)", got, workers)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestSolveBatchFuncCompletionOrder: SolveBatchFunc must deliver each
// result as its solve completes — a fast problem's callback fires while
// a slow sibling is still running, which is what lets the stream
// endpoint emit its first NDJSON record before the batch finishes.
func TestSolveBatchFuncCompletionOrder(t *testing.T) {
	svc := mwl.NewService(2)
	slowGate := make(chan struct{})
	setBatchStub(t, func(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
		if p.Lambda == 1 { // the slow problem
			select {
			case <-slowGate:
			case <-ctx.Done():
				return mwl.Solution{}, ctx.Err()
			}
		}
		return mwl.Solution{Method: "test-batch-stub", Area: int64(p.Lambda)}, nil
	})
	got := make(chan int, 2)
	errc := make(chan error, 1)
	go func() {
		errc <- svc.SolveBatchFunc(context.Background(), stubBatch(2), func(i int, r mwl.BatchResult) {
			if r.Err != nil {
				t.Errorf("problem %d: %v", i, r.Err)
			}
			got <- i
		})
	}()
	if first := <-got; first != 1 {
		t.Fatalf("first completion was problem %d; want the fast problem (1) while the slow one still runs", first)
	}
	close(slowGate)
	if second := <-got; second != 0 {
		t.Fatalf("second completion was %d, want 0", second)
	}
	if err := <-errc; err != nil {
		t.Fatalf("SolveBatchFunc returned %v for a completed batch", err)
	}
}
