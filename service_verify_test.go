// Tests for Service-level verification (-verify): corrupted-but-
// parseable store entries are detected and repaired instead of served,
// and a misbehaving solver cannot get an illegal solution past the
// Service.
package mwl_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
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

// TestCopyHitVerifiesAdmittedCopies: under Verify, concurrent copy hits
// on an Admitted copy that fails Verify all miss, the copy is dropped
// and one failure is counted; a sound copy is served to every caller.
// Without Verify the bad copy is served as it is.
func TestCopyHitVerifiesAdmittedCopies(t *testing.T) {
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	p := mwl.Problem{Graph: g, Lambda: lmin + 3}
	key, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	good, err := mwl.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var bad mwl.Solution
	blob, _ := json.Marshal(good)
	if err := json.Unmarshal(blob, &bad); err != nil {
		t.Fatal(err)
	}
	bad.Area++
	hits := func(svc *mwl.Service) int {
		t.Helper()
		const callers = 8
		served := make(chan bool, callers)
		for i := 0; i < callers; i++ {
			go func() {
				_, _, ok := svc.CopyHit(key, p)
				served <- ok
			}()
		}
		n := 0
		for i := 0; i < callers; i++ {
			if <-served {
				n++
			}
		}
		return n
	}

	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1, Verify: true})
	svc.Admit(key, bad)
	if n := hits(svc); n != 0 {
		t.Fatalf("bad copy served %d times under Verify", n)
	}
	if st := svc.CacheStats(); st.VerifyFailures != 1 || st.Entries != 0 {
		t.Fatalf("after the bad copy: %+v, want 1 verify failure and no entry", st)
	}
	svc.Admit(key, good)
	if n := hits(svc); n != 8 {
		t.Fatalf("sound copy served %d of 8 times", n)
	}
	if st := svc.CacheStats(); st.VerifyFailures != 1 || st.Hits != 8 {
		t.Fatalf("after the sound copy: %+v, want 1 verify failure and 8 hits", st)
	}

	plain := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 1})
	plain.Admit(key, bad)
	if n := hits(plain); n != 8 {
		t.Fatalf("without Verify the copy was served %d of 8 times", n)
	}
}
