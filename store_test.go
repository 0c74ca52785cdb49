// Tests for the solution-store subsystem: the file-backed persistent
// store, the Service's bounded LRU (entry cap, byte cap, eviction
// order), and restart warmth — a new Service over the same store dir
// serves previous answers without re-running the solver.
package mwl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	mwl "repro"
	"repro/internal/metrics"
)

// solveProbe builds a small hashable problem that differs per lambda —
// handy for generating distinct cache keys cheaply.
func probeProblem(t *testing.T, method string, lambda int) mwl.Problem {
	t.Helper()
	return mwl.Problem{Method: method, Graph: mwl.Fig1Graph(), Lambda: lambda}
}

func TestFileStoreRoundTrip(t *testing.T) {
	fs, err := mwl.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mwl.Solve(context.Background(), probeProblem(t, "dpalloc", 40))
	if err != nil {
		t.Fatal(err)
	}
	sol.Cached = true // must be stripped on Put
	if err := fs.Put("deadbeef", sol); err != nil {
		t.Fatal(err)
	}
	got, ok := fs.Get("deadbeef")
	if !ok {
		t.Fatal("stored solution not found")
	}
	if got.Cached {
		t.Fatal("Cached flag persisted")
	}
	sol.Cached = false
	if !reflect.DeepEqual(got, sol) {
		t.Fatalf("round trip changed the solution:\ngot  %+v\nwant %+v", got, sol)
	}
	if n, err := fs.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

func TestFileStoreCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	fs, err := mwl.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"garbage":    []byte("{not json at all"),
		"wrongshape": []byte(`{"method": 12}`),
		"nodatapath": []byte(`{"method":"dpalloc","area":7}`),
		"empty":      nil,
	}
	for key, blob := range cases {
		if err := os.WriteFile(filepath.Join(dir, key+".json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := fs.Get(key); ok {
			t.Fatalf("corrupted entry %q served as a hit", key)
		}
	}
	// Unknown keys and invalid keys are plain misses too.
	if _, ok := fs.Get("absent"); ok {
		t.Fatal("absent key hit")
	}
	if _, ok := fs.Get("../escape"); ok {
		t.Fatal("invalid key hit")
	}
}

// persistCounter counts real solver runs for the restart test.
var persistCounter = func() *countingSolver {
	c := &countingSolver{}
	if err := mwl.Register("test-persist", c); err != nil {
		panic(err)
	}
	return c
}()

// TestServiceSurvivesRestart is the tentpole acceptance: a second
// Service (a "restarted process") over the same store directory serves
// a previously solved problem with Cached set, without re-running the
// solver — and a corrupted store entry degrades to recomputation.
func TestServiceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	p := probeProblem(t, "test-persist", 40)
	key, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}

	fs1, err := mwl.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 2, Store: fs1})
	before := persistCounter.calls.Load()
	first, err := svc1.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first solve reported Cached")
	}
	if got := persistCounter.calls.Load() - before; got != 1 {
		t.Fatalf("solver ran %d times", got)
	}
	if n, err := fs1.Len(); err != nil || n != 1 {
		t.Fatalf("store holds %d entries after solve, %v", n, err)
	}

	// "Restart": fresh Service, fresh FileStore, same directory.
	fs2, err := mwl.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 2, Store: fs2})
	warm, err := svc2.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("restarted service did not serve the stored solution as cached")
	}
	if got := persistCounter.calls.Load() - before; got != 1 {
		t.Fatalf("solver re-ran after restart (%d runs)", got)
	}
	warm.Cached = false
	if !reflect.DeepEqual(warm, first) {
		t.Fatalf("restart round trip changed the solution:\ngot  %+v\nwant %+v", warm, first)
	}
	st := svc2.CacheStats()
	if st.StoreHits != 1 {
		t.Fatalf("StoreHits = %d, want 1", st.StoreHits)
	}
	// The warm hit landed in svc2's own LRU: a third ask is a memory hit.
	again, err := svc2.Solve(context.Background(), p)
	if err != nil || !again.Cached {
		t.Fatalf("memory re-hit: cached=%v err=%v", again.Cached, err)
	}
	if got := svc2.CacheStats(); got.Hits != 1 {
		t.Fatalf("Hits = %d, want 1", got.Hits)
	}

	// Corrupt the entry on disk: a third "restart" must recompute.
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs3, err := mwl.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc3 := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 2, Store: fs3})
	recomputed, err := svc3.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if recomputed.Cached {
		t.Fatal("corrupted entry served as cached")
	}
	if got := persistCounter.calls.Load() - before; got != 2 {
		t.Fatalf("solver ran %d times total, want 2 (recompute after corruption)", got)
	}
	// The recompute repaired the entry on disk.
	blob, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(blob) {
		t.Fatal("store entry not repaired after corruption")
	}
}

// lruCounter counts solver runs for the eviction tests.
var lruCounter = func() *countingSolver {
	c := &countingSolver{}
	if err := mwl.Register("test-lru", c); err != nil {
		panic(err)
	}
	return c
}()

// TestServiceLRUEvictionOrder: with a 2-entry cap, the least recently
// used entry is the one evicted, and touching an entry refreshes it.
func TestServiceLRUEvictionOrder(t *testing.T) {
	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 2, CacheEntries: 2})
	ctx := context.Background()
	a := probeProblem(t, "test-lru", 40)
	b := probeProblem(t, "test-lru", 41)
	c := probeProblem(t, "test-lru", 42)

	before := lruCounter.calls.Load()
	for _, p := range []mwl.Problem{a, b} {
		if _, err := svc.Solve(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a: it becomes most recently used, so b is the eviction victim.
	if sol, err := svc.Solve(ctx, a); err != nil || !sol.Cached {
		t.Fatalf("a not cached: %v %v", sol.Cached, err)
	}
	if _, err := svc.Solve(ctx, c); err != nil {
		t.Fatal(err)
	}
	st := svc.CacheStats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("entries=%d evictions=%d, want 2/1", st.Entries, st.Evictions)
	}
	// a and c are warm; b was evicted and must re-run the solver.
	if sol, err := svc.Solve(ctx, a); err != nil || !sol.Cached {
		t.Fatalf("a evicted out of order: cached=%v err=%v", sol.Cached, err)
	}
	if sol, err := svc.Solve(ctx, c); err != nil || !sol.Cached {
		t.Fatalf("c not cached: cached=%v err=%v", sol.Cached, err)
	}
	runs := lruCounter.calls.Load() - before
	if runs != 3 {
		t.Fatalf("solver ran %d times before b, want 3", runs)
	}
	if sol, err := svc.Solve(ctx, b); err != nil || sol.Cached {
		t.Fatalf("b served cached after eviction: cached=%v err=%v", sol.Cached, err)
	}
	if got := lruCounter.calls.Load() - before; got != 4 {
		t.Fatalf("solver ran %d times total, want 4", got)
	}
	if st := svc.CacheStats(); st.Bytes <= 0 {
		t.Fatalf("Bytes = %d, want > 0", st.Bytes)
	}
}

// TestServiceByteCap: a byte cap far below one solution's footprint
// keeps memory bounded — every admission is immediately evicted, and
// the service keeps answering correctly.
func TestServiceByteCap(t *testing.T) {
	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 2, CacheBytes: 16})
	ctx := context.Background()
	for lambda := 40; lambda < 44; lambda++ {
		if _, err := svc.Solve(ctx, probeProblem(t, "test-lru", lambda)); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.CacheStats()
	if st.Entries != 0 {
		t.Fatalf("entries = %d under a 16-byte cap, want 0", st.Entries)
	}
	if st.Bytes != 0 {
		t.Fatalf("bytes = %d, want 0", st.Bytes)
	}
	if st.Evictions != 4 {
		t.Fatalf("evictions = %d, want 4", st.Evictions)
	}
}

// TestServiceWorkloadLargerThanCap drives a workload past the entry cap
// and checks the acceptance property directly: memory stays bounded and
// evictions are observable.
func TestServiceWorkloadLargerThanCap(t *testing.T) {
	const cap = 4
	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 4, CacheEntries: cap})
	ctx := context.Background()
	var problems []mwl.Problem
	for lambda := 40; lambda < 52; lambda++ {
		problems = append(problems, probeProblem(t, "test-lru", lambda))
	}
	for _, r := range svc.SolveBatch(ctx, problems) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	st := svc.CacheStats()
	if st.Entries > cap {
		t.Fatalf("entries = %d exceeds cap %d", st.Entries, cap)
	}
	if st.Evictions < uint64(len(problems)-cap) {
		t.Fatalf("evictions = %d, want >= %d", st.Evictions, len(problems)-cap)
	}
	if svc.CacheSize() > cap {
		t.Fatalf("CacheSize = %d exceeds cap %d", svc.CacheSize(), cap)
	}
}

// gateSolver blocks in-flight until released, so tests can hold a solve
// open while churning the cache around it.
type gateSolver struct {
	entered chan struct{}
	release chan struct{}
	calls   countingSolver
}

func (g *gateSolver) Solve(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
	g.calls.calls.Add(1)
	select {
	case g.entered <- struct{}{}:
	default:
	}
	select {
	case <-g.release:
	case <-ctx.Done():
		return mwl.Solution{}, ctx.Err()
	}
	q := p
	q.Method = "dpalloc"
	return mwl.Solve(ctx, q)
}

// TestInFlightDedupSurvivesEviction: an in-flight solve is never
// evicted, so a duplicate arriving while the LRU thrashes still joins
// the running solve instead of starting a second one.
func TestInFlightDedupSurvivesEviction(t *testing.T) {
	gate := &gateSolver{entered: make(chan struct{}, 1), release: make(chan struct{})}
	if err := mwl.Register("test-gate", gate); err != nil {
		t.Fatal(err)
	}
	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 4, CacheEntries: 1})
	ctx := context.Background()
	slow := probeProblem(t, "test-gate", 40)

	leaderDone := make(chan error, 1)
	go func() {
		_, err := svc.Solve(ctx, slow)
		leaderDone <- err
	}()
	<-gate.entered // leader is mid-solve

	// Churn: distinct problems repeatedly overflow the 1-entry LRU.
	for lambda := 50; lambda < 56; lambda++ {
		if _, err := svc.Solve(ctx, probeProblem(t, "test-lru", lambda)); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.CacheStats(); st.Evictions == 0 {
		t.Fatal("churn caused no evictions")
	}

	// A duplicate of the in-flight problem must join it, not re-solve.
	dupDone := make(chan mwl.Solution, 1)
	go func() {
		sol, err := svc.Solve(ctx, slow)
		if err != nil {
			t.Error(err)
		}
		dupDone <- sol
	}()
	close(gate.release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	sol := <-dupDone
	if !sol.Cached {
		t.Fatal("duplicate did not report Cached")
	}
	if got := gate.calls.calls.Load(); got != 1 {
		t.Fatalf("gated solver ran %d times, want 1", got)
	}
}

// measureSolutionBytes solves p in a throwaway service and reports the
// cache footprint its solution is charged at.
func measureSolutionBytes(t *testing.T, p mwl.Problem) int64 {
	t.Helper()
	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1})
	if _, err := svc.Solve(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	return svc.CacheStats().Bytes
}

// TestOversizedSolutionDoesNotFlushCache: one solution bigger than the
// whole byte cap must be rejected outright, not admitted at the hot end
// where it would evict every warm entry on its way out.
func TestOversizedSolutionDoesNotFlushCache(t *testing.T) {
	smallA := probeProblem(t, "dpalloc", 40)
	smallB := probeProblem(t, "dpalloc", 41)
	bigG, err := mwl.GenerateRandom(mwl.RandomConfig{N: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := mwl.MinLambda(bigG, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	big := mwl.Problem{Method: "dpalloc", Graph: bigG, Lambda: lmin + 2}

	smallBytes := measureSolutionBytes(t, smallA)
	bigBytes := measureSolutionBytes(t, big)
	if bigBytes <= 2*smallBytes {
		t.Fatalf("test setup: big solution (%d B) not larger than two small ones (%d B each)", bigBytes, smallBytes)
	}
	// A solution's charge includes its elapsed_ns digits, so the same
	// problem is charged a byte more or less from one solve to the next:
	// put the cap midway between the two small entries and the big one.
	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 2, CacheBytes: (2*smallBytes + bigBytes) / 2})
	ctx := context.Background()
	for _, p := range []mwl.Problem{smallA, smallB} {
		if _, err := svc.Solve(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Solve(ctx, big); err != nil {
		t.Fatal(err)
	}
	st := svc.CacheStats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d after oversized insert, want 2 warm survivors", st.Entries)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (the oversized rejection)", st.Evictions)
	}
	// Both small problems are still warm.
	for _, p := range []mwl.Problem{smallA, smallB} {
		if sol, err := svc.Solve(ctx, p); err != nil || !sol.Cached {
			t.Fatalf("warm entry flushed by oversized insert: cached=%v err=%v", sol.Cached, err)
		}
	}
}

// TestMetricsFoldUnknownMethods: a stream of distinct bogus method
// names must collapse into one "unknown" metrics label, not grow the
// per-method map without bound.
func TestMetricsFoldUnknownMethods(t *testing.T) {
	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1})
	g := mwl.Fig1Graph()
	for _, m := range []string{"bogus-a", "bogus-b", "bogus-c"} {
		if _, err := svc.Solve(context.Background(), mwl.Problem{Method: m, Graph: g, Lambda: 40}); err == nil {
			t.Fatalf("method %q solved", m)
		}
	}
	got := exposition(svc)
	if strings.Contains(got, "bogus") {
		t.Fatalf("bogus method leaked into metrics:\n%s", got)
	}
	for _, want := range []string{
		`mwld_solves_total{method="unknown"} 3`,
		`mwld_solve_errors_total{method="unknown"} 3`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("metrics missing %q:\n%s", want, got)
		}
	}
}

// exposition renders svc's metric families as Prometheus text.
func exposition(svc *mwl.Service) string {
	var reg metrics.Registry
	svc.RegisterMetrics(&reg)
	var buf bytes.Buffer
	reg.WriteTo(&buf)
	return buf.String()
}

// solutionJSON is json.Marshal's encoding of sol as Go 1.24 writes it,
// the form the Service answers with: a zero Stats is left out by its
// omitzero tag, which encoding/json before 1.24 ignores, writing
// "stats":{} instead.
func solutionJSON(t *testing.T, sol mwl.Solution) []byte {
	t.Helper()
	blob, err := json.Marshal(sol)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats == (mwl.SolveStats{}) {
		blob = bytes.Replace(blob, []byte(`,"stats":{}`), nil, 1)
	}
	return blob
}

// hitBytes is the response a cache hit on sol answers with: its compact
// encoding with Cached set, newline-terminated.
func hitBytes(t *testing.T, sol mwl.Solution) []byte {
	t.Helper()
	sol.Cached = true
	return append(solutionJSON(t, sol), '\n')
}

// chargedBytes is the cache charge of one entry: the length of the
// solution's own encoding plus the key.
func chargedBytes(t *testing.T, key string, sol mwl.Solution) int64 {
	t.Helper()
	sol.Cached = false
	return int64(len(solutionJSON(t, sol)) + len(key))
}

// TestCacheHitBytesEncodedOnce: solved and Admitted entries both carry
// the hit response, encoded once, and are charged at their solution's
// encoding plus the key whatever the Cached flag they arrived with.
func TestCacheHitBytesEncodedOnce(t *testing.T) {
	svc := mwl.NewService(1)
	p := probeProblem(t, "test-lru", 40)
	key, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := svc.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	_, hit, ok := svc.Hit(key, nil)
	if !ok || !bytes.Equal(hit, hitBytes(t, sol)) {
		t.Fatalf("solved entry: hit %v\n%s\nwant\n%s", ok, hit, hitBytes(t, sol))
	}

	admitted := mwl.Solution{Method: "test", Datapath: &mwl.Datapath{}, Area: 7, Cached: true}
	other := strings.Repeat("ab", 32)
	svc.Admit(other, admitted, nil)
	_, hit, ok = svc.Hit(other, nil)
	if !ok || !bytes.Equal(hit, hitBytes(t, admitted)) {
		t.Fatalf("admitted entry: hit %v\n%s\nwant\n%s", ok, hit, hitBytes(t, admitted))
	}
	if got, want := svc.CacheStats().Bytes, chargedBytes(t, key, sol)+chargedBytes(t, other, admitted); got != want {
		t.Fatalf("cache charged %d bytes, want %d", got, want)
	}
}

// TestEvictionAndClearReleaseHitBytes: an evicted or cleared entry no
// longer answers Hit, and its charge leaves the byte count.
func TestEvictionAndClearReleaseHitBytes(t *testing.T) {
	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1, CacheEntries: 1})
	ctx := context.Background()
	var keys []string
	var last mwl.Solution
	for lambda := 40; lambda < 42; lambda++ {
		p := probeProblem(t, "test-lru", lambda)
		key, err := p.Hash()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		if last, err = svc.Solve(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := svc.Hit(keys[0], nil); ok {
		t.Fatal("evicted entry still answers Hit")
	}
	if _, _, ok := svc.Hit(keys[1], nil); !ok {
		t.Fatal("warm entry misses Hit")
	}
	if got, want := svc.CacheStats().Bytes, chargedBytes(t, keys[1], last); got != want {
		t.Fatalf("after eviction the cache holds %d bytes, want %d", got, want)
	}
	svc.ClearCache()
	if _, _, ok := svc.Hit(keys[1], nil); ok {
		t.Fatal("cleared entry still answers Hit")
	}
	if st := svc.CacheStats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("after ClearCache: %d entries, %d bytes", st.Entries, st.Bytes)
	}
}
