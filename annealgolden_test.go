package mwl_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	mwl "repro"
)

var updateAnneal = flag.Bool("update-anneal", false, "re-record testdata/anneal.golden from the current code")

const annealGolden = "testdata/anneal.golden"

// annealCase is one problem of the anneal golden: a default TGFF graph
// of n operations from seed, λ = ⌊tenths·λ_min/10⌋, solved by method
// with the graph's seed as the anneal seed and a budget of moves.
type annealCase struct {
	n      int
	seed   int64
	tenths int
	moves  int
	method string
}

func (c annealCase) String() string {
	return fmt.Sprintf("%s n=%d seed=%d λ=%d/10·λ_min moves=%d", c.method, c.n, c.seed, c.tenths, c.moves)
}

// digest solves the case and hashes the Solution's wire form without
// Elapsed: the datapath, area, makespan, per-kind areas and every Stats
// counter (Evals, Moves, Accepted and Merges among them).
func (c annealCase) digest(t *testing.T) string {
	t.Helper()
	g, err := mwl.GenerateRandom(mwl.RandomConfig{N: c.n, Seed: c.seed})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := mwl.Solve(context.Background(), mwl.Problem{
		Method: c.method, Graph: g, Lambda: lmin * c.tenths / 10,
		Options: mwl.SolveOptions{Seed: c.seed, AnnealMoves: c.moves},
	})
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	sol.Elapsed, sol.Cached = 0, false
	blob, err := json.Marshal(sol)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:12])
}

// annealCases is the recorded problem set: 60 graphs, N from 8 to 96,
// λ from 1.0 to 1.4·λ_min, budgets from 2,000 moves to the default
// 20,000, each solved by anneal and by the default portfolio.
func annealCases() []annealCase {
	sizes := []int{8, 12, 16, 24, 32, 48, 64, 96}
	tenths := []int{10, 11, 12, 14}
	moves := []int{2000, 5000, 10000, 20000}
	var out []annealCase
	for i := 0; i < 60; i++ {
		for _, m := range []string{"anneal", "portfolio"} {
			out = append(out, annealCase{
				n: sizes[i%len(sizes)], seed: int64(i),
				tenths: tenths[(i/len(sizes))%len(tenths)],
				moves:  moves[(i/3)%len(moves)], method: m,
			})
		}
	}
	return out
}

// TestAnnealGolden pins every anneal and portfolio answer on a fixed
// problem set, Stats included. A change to the annealer's scheduler or
// move loop that alters any state it visits moves a digest; a
// performance change must leave them all as they are
// (go test -run TestAnnealGolden -update-anneal re-records them).
func TestAnnealGolden(t *testing.T) {
	if *updateAnneal {
		var b strings.Builder
		b.WriteString("# method n seed tenths moves digest — written by go test -run TestAnnealGolden -update-anneal\n")
		for _, c := range annealCases() {
			fmt.Fprintf(&b, "%s %d %d %d %d %s\n", c.method, c.n, c.seed, c.tenths, c.moves, c.digest(t))
		}
		if err := os.WriteFile(annealGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(annealGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cases := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var c annealCase
		var want string
		if _, err := fmt.Sscan(line, &c.method, &c.n, &c.seed, &c.tenths, &c.moves, &want); err != nil {
			t.Fatalf("%s: %q: %v", annealGolden, line, err)
		}
		cases++
		if testing.Short() && c.n > 32 {
			continue
		}
		if got := c.digest(t); got != want {
			t.Errorf("%v: digest %s, golden %s", c, got, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cases == 0 {
		t.Fatalf("%s holds no cases", annealGolden)
	}
}
