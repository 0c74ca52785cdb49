// Tests for Service-level verification (-verify): corrupted-but-
// parseable store entries are detected and repaired instead of served,
// a misbehaving solver cannot get an illegal solution past the Service,
// and no Admitted copy is served before it passes Verify, whichever
// path serves it.
package mwl_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	mwl "repro"
)

// tamperStoredArea bit-flips the reported area of a stored solution,
// keeping the entry perfectly parseable — the corruption the plain
// decode-tolerant store load cannot catch.
func tamperStoredArea(t *testing.T, dir, key string, delta int64) {
	t.Helper()
	path := filepath.Join(dir, key+".json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	area, ok := m["area"].(float64)
	if !ok {
		t.Fatalf("store entry has no area: %s", blob)
	}
	m["area"] = int64(area) + delta
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestServiceVerifyRepairsTamperedStore(t *testing.T) {
	dir := t.TempDir()
	fs, err := mwl.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 9, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin + 2}
	key, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}

	orig, err := mwl.NewServiceWith(mwl.ServiceOptions{Store: fs}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	tamperStoredArea(t, dir, key, 7)

	// Without verification the lie is served verbatim: the store load is
	// decode-tolerant, not semantics-tolerant. This is the gap -verify
	// closes.
	blind, err := mwl.NewServiceWith(mwl.ServiceOptions{Store: fs}).Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if blind.Area != orig.Area+7 || !blind.Cached {
		t.Fatalf("control: tampered entry not served blindly (area %d, cached %v)", blind.Area, blind.Cached)
	}

	// With verification the tampered entry is demoted to a miss, the
	// problem recomputes, and the write-through repairs the file.
	vsvc := mwl.NewServiceWith(mwl.ServiceOptions{Store: fs, Verify: true})
	fixed, err := vsvc.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Cached {
		t.Fatal("tampered entry served as a cache hit despite -verify")
	}
	if fixed.Area != orig.Area {
		t.Fatalf("recomputed area %d, want %d", fixed.Area, orig.Area)
	}
	st := vsvc.CacheStats()
	if st.VerifyFailures != 1 {
		t.Fatalf("VerifyFailures = %d, want 1", st.VerifyFailures)
	}

	// A fresh verifying service now gets a clean store hit: the entry
	// was repaired, not just bypassed.
	again := mwl.NewServiceWith(mwl.ServiceOptions{Store: fs, Verify: true})
	re, err := again.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Cached || re.Area != orig.Area {
		t.Fatalf("repaired entry not served (area %d, cached %v)", re.Area, re.Cached)
	}
	if got := again.CacheStats().VerifyFailures; got != 0 {
		t.Fatalf("clean store hit counted %d verify failures", got)
	}
}

// illegalSolver answers every problem with an empty datapath: parseable,
// confidently wrong.
type illegalSolver struct{}

func (illegalSolver) Solve(ctx context.Context, p mwl.Problem) (mwl.Solution, error) {
	return mwl.Solution{Method: "test-illegal", Datapath: &mwl.Datapath{}, Area: 1}, nil
}

func init() {
	if err := mwl.Register("test-illegal", illegalSolver{}); err != nil {
		panic(err)
	}
}

func TestServiceVerifyRejectsIllegalSolver(t *testing.T) {
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 6, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Method: "test-illegal", Graph: g, Lambda: 40}

	// Without verification the illegal solution sails through.
	if _, err := mwl.NewServiceWith(mwl.ServiceOptions{}).Solve(context.Background(), p); err != nil {
		t.Fatalf("control: %v", err)
	}

	vsvc := mwl.NewServiceWith(mwl.ServiceOptions{Verify: true})
	_, err = vsvc.Solve(context.Background(), p)
	if !errors.Is(err, mwl.ErrVerify) {
		t.Fatalf("err = %v, want ErrVerify", err)
	}
	if n := vsvc.CacheSize(); n != 0 {
		t.Fatalf("illegal solution cached: size %d", n)
	}
	if st := vsvc.CacheStats(); st.VerifyFailures != 1 {
		t.Fatalf("VerifyFailures = %d, want 1", st.VerifyFailures)
	}
}

// TestServiceVerifyCleanPath: verification changes nothing for honest
// solvers — solutions cache normally and repeat solves hit the memo.
func TestServiceVerifyCleanPath(t *testing.T) {
	svc := mwl.NewServiceWith(mwl.ServiceOptions{Verify: true})
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 8, Seed: 79})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin + 2}
	first, err := svc.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || !second.Cached {
		t.Fatalf("cache behaviour changed under -verify: %v %v", first.Cached, second.Cached)
	}
	if st := svc.CacheStats(); st.VerifyFailures != 0 {
		t.Fatalf("VerifyFailures = %d for honest solves", st.VerifyFailures)
	}
}

// TestCopyHitVerifiesAdmittedCopies: under Verify, concurrent hits on
// an Admitted copy that fails Verify all miss, the copy is dropped and
// one failure is counted; a sound copy is served to every caller.
// Without Verify the bad copy is served as it is.
func TestCopyHitVerifiesAdmittedCopies(t *testing.T) {
	p, key, good, bad := copyFixture(t)
	hits := func(svc *mwl.Service) int {
		t.Helper()
		return concurrently(8, func() bool {
			_, _, ok := svc.Hit(key, &p)
			return ok
		})
	}

	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1, Verify: true})
	svc.Admit(key, bad, nil)
	if n := hits(svc); n != 0 {
		t.Fatalf("bad copy served %d times under Verify", n)
	}
	if st := svc.CacheStats(); st.VerifyFailures != 1 || st.Entries != 0 {
		t.Fatalf("after the bad copy: %+v, want 1 verify failure and no entry", st)
	}
	svc.Admit(key, good, nil)
	if n := hits(svc); n != 8 {
		t.Fatalf("sound copy served %d of 8 times", n)
	}
	if st := svc.CacheStats(); st.VerifyFailures != 1 || st.Hits != 8 {
		t.Fatalf("after the sound copy: %+v, want 1 verify failure and 8 hits", st)
	}

	plain := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1})
	plain.Admit(key, bad, nil)
	if n := hits(plain); n != 8 {
		t.Fatalf("without Verify the copy was served %d of 8 times", n)
	}
}

// copyFixture returns a problem, its key, its solution and a copy of
// the solution with a wrong area.
func copyFixture(t *testing.T) (p mwl.Problem, key string, good, bad mwl.Solution) {
	t.Helper()
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	p = mwl.Problem{Graph: g, Lambda: lmin + 3}
	if key, err = p.Hash(); err != nil {
		t.Fatal(err)
	}
	if good, err = mwl.Solve(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	blob, _ := json.Marshal(good)
	if err := json.Unmarshal(blob, &bad); err != nil {
		t.Fatal(err)
	}
	bad.Area++
	return p, key, good, bad
}

// concurrently runs f on n goroutines at once and counts the calls
// that reported true.
func concurrently(n int, f func() bool) int {
	done := make(chan bool, n)
	for i := 0; i < n; i++ {
		go func() { done <- f() }()
	}
	count := 0
	for i := 0; i < n; i++ {
		if <-done {
			count++
		}
	}
	return count
}

// TestFailoverCopiesVerified: the two copies a replica serves for a
// down owner are checked under Verify, from several goroutines at
// once. Hit serves an Admitted copy only once it verifies, dropping a
// bad one, and counts a cache hit for each copy it serves; Admit with
// the problem refuses a bad fetched copy and inserts a sound one as
// verified. Without Verify both serve and insert the bad copy as they
// are.
func TestFailoverCopiesVerified(t *testing.T) {
	p, key, good, bad := copyFixture(t)
	hits := func(svc *mwl.Service) int {
		return concurrently(8, func() bool {
			_, _, ok := svc.Hit(key, &p)
			return ok
		})
	}

	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1, Verify: true})
	svc.Admit(key, bad, nil)
	if n := hits(svc); n != 0 {
		t.Fatalf("bad copy served %d times under Verify", n)
	}
	if st := svc.CacheStats(); st.VerifyFailures != 1 || st.Entries != 0 {
		t.Fatalf("after the bad copy: %+v, want 1 verify failure and no entry", st)
	}
	if n := concurrently(8, func() bool { return svc.Admit(key, bad, &p) }); n != 0 {
		t.Fatalf("bad fetched copy admitted %d times under Verify", n)
	}
	if st := svc.CacheStats(); st.VerifyFailures != 9 || st.Entries != 0 {
		t.Fatalf("after the bad fetched copies: %+v, want 9 verify failures and no entry", st)
	}
	if n := concurrently(8, func() bool { return svc.Admit(key, good, &p) }); n != 8 {
		t.Fatalf("sound fetched copy admitted %d of 8 times", n)
	}
	// Admitted with its problem, the copy is verified already: a Hit
	// without one serves it.
	if _, _, ok := svc.Hit(key, nil); !ok {
		t.Fatal("a copy verified on Admit missed a Hit without a problem")
	}
	if n := hits(svc); n != 8 {
		t.Fatalf("sound copy served %d of 8 times", n)
	}
	if st := svc.CacheStats(); st.VerifyFailures != 9 || st.Hits != 9 {
		t.Fatalf("after the sound copy: %+v, want 9 verify failures and 9 hits", st)
	}

	plain := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1})
	if !plain.Admit(key, bad, &p) {
		t.Fatal("without Verify the fetched copy was refused")
	}
	if n := hits(plain); n != 8 {
		t.Fatalf("without Verify the copy was served %d of 8 times", n)
	}
}

// TestOwnerAdmittedCopyVerified: the owner of a key holds a copy a peer
// replicated to it with a wrong area. Under Verify, a Hit without the
// problem misses it, and Solve and SolveKeyed check it, drop it, count
// one failure and solve afresh; the fresh answer is then a hit with or
// without the problem. Without Verify the copy is served as it is.
func TestOwnerAdmittedCopyVerified(t *testing.T) {
	p, key, good, bad := copyFixture(t)
	ctx := context.Background()
	for name, solve := range map[string]func(*mwl.Service) (mwl.Solution, error){
		"Solve":      func(svc *mwl.Service) (mwl.Solution, error) { return svc.Solve(ctx, p) },
		"SolveKeyed": func(svc *mwl.Service) (mwl.Solution, error) { return svc.SolveKeyed(ctx, key, p) },
	} {
		svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1, Verify: true})
		svc.Admit(key, bad, nil)
		if _, _, ok := svc.Hit(key, nil); ok {
			t.Fatalf("%s: a Hit without the problem served the unchecked copy", name)
		}
		if st := svc.CacheStats(); st.VerifyFailures != 0 || st.Hits != 0 || st.Entries != 1 {
			t.Fatalf("%s: a Hit without the problem moved %+v; want the copy left for a check", name, st)
		}
		sol, err := solve(svc)
		if err != nil {
			t.Fatal(err)
		}
		if err := mwl.Verify(p, sol); err != nil || sol.Cached || sol.Area != good.Area {
			t.Fatalf("%s: served cached=%v area %d (%v); want a fresh solve of area %d", name, sol.Cached, sol.Area, err, good.Area)
		}
		if st := svc.CacheStats(); st.VerifyFailures != 1 || st.Misses != 1 || st.Hits != 0 {
			t.Fatalf("%s: %+v, want 1 verify failure, 1 miss and no hit", name, st)
		}
		for _, q := range []*mwl.Problem{nil, &p} {
			if sol, _, ok := svc.Hit(key, q); !ok || sol.Area != good.Area {
				t.Fatalf("%s: the fresh answer missed a Hit (problem %v)", name, q != nil)
			}
		}

		plain := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1})
		plain.Admit(key, bad, nil)
		if sol, err := solve(plain); err != nil || !sol.Cached || sol.Area != bad.Area {
			t.Fatalf("%s without Verify: cached=%v area %d, %v; want the copy served", name, sol.Cached, sol.Area, err)
		}
	}
}

// TestHitServesTheEntryItChecked: under Verify, writers Admit a bad and
// a sound copy of one key in turns while readers Hit it with the
// problem. Every solution served passes Verify: a copy replaced between
// its check and its serving is never what a Hit hands back.
func TestHitServesTheEntryItChecked(t *testing.T) {
	p, key, good, bad := copyFixture(t)
	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1, Verify: true})
	const writers, readers, rounds = 2, 4, 200
	var wg sync.WaitGroup
	var served, refused atomic.Int64
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				svc.Admit(key, bad, nil)
				svc.Admit(key, good, nil)
			}
		}()
	}
	errs := make(chan error, readers)
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				sol, hit, ok := svc.Hit(key, &p)
				if !ok {
					refused.Add(1)
					continue
				}
				served.Add(1)
				if err := mwl.Verify(p, sol); err != nil {
					errs <- err
					return
				}
				var wire mwl.Solution
				if err := json.Unmarshal(hit, &wire); err != nil || wire.Area != sol.Area {
					errs <- fmt.Errorf("hit bytes (area %d, %v) are not the solution served (area %d)", wire.Area, err, sol.Area)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("a Hit served a copy that fails Verify: %v", err)
		}
	}
	if served.Load() == 0 {
		t.Fatal("no Hit served the sound copy")
	}
	st := svc.CacheStats()
	if st.Hits != uint64(served.Load()) {
		t.Fatalf("%d hits counted for %d served", st.Hits, served.Load())
	}
}
