// Tests for the replication hooks on Service: the OnSolved callback and
// Peek/Admit, the cluster replication plane's local half. An Admitted
// copy is served through Hit like any cache entry, by Solve too; under
// Verify it is checked first (service_verify_test.go).
package mwl_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	mwl "repro"
)

// TestOnSolvedFiresOncePerFreshSolve: the hook sees every leader solve
// exactly once — cache hits, in-flight joins and store hits stay
// invisible, so replication traffic scales with fresh work, not with
// request volume.
func TestOnSolvedFiresOncePerFreshSolve(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	var hits [][]byte
	svc := mwl.NewServiceWith(mwl.ServiceOptions{
		Workers: 2,
		OnSolved: func(key string, sol mwl.Solution, hit []byte) {
			mu.Lock()
			keys = append(keys, key)
			hits = append(hits, hit)
			mu.Unlock()
		},
	})
	p := mwl.Problem{Graph: mwl.Fig1Graph(), Lambda: 40}
	key, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Solve(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Solve(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("OnSolved fired with %v, want exactly [%s]", keys, key)
	}
	// The hook is handed the bytes a hit answers with.
	if _, hit, ok := svc.Hit(key, &p); !ok || !bytes.Equal(hits[0], hit) {
		t.Fatalf("OnSolved's bytes\n%s\nare not the entry's hit bytes\n%s", hits[0], hit)
	}
}

// TestAdmitAndPeek: an admitted solution is visible to Peek and serves
// the next Solve as a cache hit without running a solver — the receiving
// half of cluster replication.
func TestAdmitAndPeek(t *testing.T) {
	src := mwl.NewService(1)
	p := mwl.Problem{Graph: mwl.Fig1Graph(), Lambda: 41}
	key, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := src.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}

	dst := mwl.NewService(1)
	if _, ok := dst.Peek(key); ok {
		t.Fatal("Peek hit on an empty service")
	}
	if !dst.Admit(key, sol, nil) {
		t.Fatal("Admit refused a copy without Verify")
	}
	got, ok := dst.Peek(key)
	if !ok || got.Area != sol.Area {
		t.Fatalf("Peek after Admit = (%+v, %v)", got, ok)
	}
	served, err := dst.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !served.Cached {
		t.Fatal("Solve recomputed an admitted solution")
	}
	if st := dst.CacheStats(); st.Misses != 0 || st.Hits != 1 {
		t.Fatalf("stats after admitted solve: %+v", st)
	}
}
