package main

import (
	"context"
	"flag"
	"os"
	"strings"
	"testing"

	mwl "repro"
)

var update = flag.Bool("update", false, "rewrite testdata/paper-2001.golden from the current solver")

// TestPaperGolden checks every paper operation at the golden seed
// against the recorded digest. With -update it records them instead.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the whole paper list")
	}
	ctx := context.Background()
	jobs, err := paperJobs(ctx, goldenSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]string, len(jobs))
	for i, j := range jobs {
		sol, err := mwl.Solve(ctx, j.p)
		if err != nil {
			t.Fatalf("job %d: %v", j.id, err)
		}
		if digests[i], err = digest(sol); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.WriteFile("testdata/paper-2001.golden", []byte(strings.Join(digests, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := strings.Fields(paperGolden)
	if len(golden) != len(jobs) {
		t.Fatalf("golden holds %d operations, the paper list %d", len(golden), len(jobs))
	}
	for i, j := range jobs {
		if digests[i] != golden[j.id] {
			t.Errorf("job %d: digest %s, golden %s", j.id, digests[i], golden[j.id])
		}
	}
}
