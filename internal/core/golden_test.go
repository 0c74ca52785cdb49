package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/tgff"
)

var updateScaling = flag.Bool("update-scaling", false, "re-record testdata/scaling.golden from the current code")

const scalingGolden = "testdata/scaling.golden"

// scalingCase is one problem of the scaling golden: a TGFF graph of n
// operations at λ = tenths/10 · λ_min.
type scalingCase struct {
	n      int
	seed   int64
	tenths int
}

func (c scalingCase) String() string {
	return fmt.Sprintf("N=%d/seed=%d/λ=%d.%dλmin", c.n, c.seed, c.tenths/10, c.tenths%10)
}

// digest solves c with the automatic resource-bound search and hashes
// the area, the datapath and the Stats.
func (c scalingCase) digest(t *testing.T) string {
	t.Helper()
	lib := model.Default()
	g, err := tgff.Generate(tgff.Config{N: c.n, Seed: c.seed})
	if err != nil {
		t.Fatal(err)
	}
	lmin, err := MinLambda(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	dp, st, err := Allocate(g, lib, lmin*c.tenths/10, Options{})
	var area int64
	if err == nil {
		area = dp.Area(lib)
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d\n%s", area, outcome(dp, st, err))))
	return hex.EncodeToString(sum[:8])
}

// TestScalingGolden pins the answers and the effort counters of the
// automatic search above BatchMinOps — N ∈ {200, 400} at λ ∈ {1.2, 2.0}·
// λ_min — at GOMAXPROCS 1 (one ladder at a time) and 2 (speculative
// ladders). A performance change to sched, refine or wcg must leave
// every digest as it is. blame breaks utilisation ties in map order, so
// some problems have more than one answer; the golden holds only
// problems that gave one answer in 50 solves when it was recorded
// (go test ./internal/core -run TestScalingGolden -update-scaling).
func TestScalingGolden(t *testing.T) {
	if *updateScaling {
		recordScalingGolden(t)
		return
	}
	f, err := os.Open(scalingGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type entry struct {
		c    scalingCase
		want string
	}
	var golden []entry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var e entry
		if _, err := fmt.Sscan(line, &e.c.n, &e.c.seed, &e.c.tenths, &e.want); err != nil {
			t.Fatalf("%s: %q: %v", scalingGolden, line, err)
		}
		golden = append(golden, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(golden) == 0 {
		t.Fatalf("%s holds no cases", scalingGolden)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, e := range golden {
			if testing.Short() && e.c.n > BatchMinOps {
				continue
			}
			if got := e.c.digest(t); got != e.want {
				t.Errorf("GOMAXPROCS=%d %v: digest %s, golden %s", procs, e.c, got, e.want)
			}
		}
	}
}

// recordScalingGolden writes the first three stable problems of each
// (N, λ) cell, trying seeds 1 to 10, with runs alternating between
// GOMAXPROCS 1 and 2.
func recordScalingGolden(t *testing.T) {
	const runs, perCell = 50, 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var out strings.Builder
	out.WriteString("# N seed tenths-of-λmin digest(area, datapath, Stats); see TestScalingGolden\n")
	for _, n := range []int{200, 400} {
		for _, tenths := range []int{12, 20} {
			kept := 0
			for seed := int64(1); seed <= 10 && kept < perCell; seed++ {
				c := scalingCase{n: n, seed: seed, tenths: tenths}
				first, stable := "", true
				for r := 0; r < runs && stable; r++ {
					runtime.GOMAXPROCS(1 + r%2)
					d := c.digest(t)
					if r == 0 {
						first = d
					}
					stable = d == first
				}
				if !stable {
					t.Logf("%v: unstable, skipped", c)
					continue
				}
				fmt.Fprintf(&out, "%d %d %d %s\n", n, seed, tenths, first)
				kept++
			}
			if kept < perCell {
				t.Errorf("N=%d λ=%d/10·λmin: only %d stable problems", n, tenths, kept)
			}
		}
	}
	if err := os.WriteFile(scalingGolden, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
