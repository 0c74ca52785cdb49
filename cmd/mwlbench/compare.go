package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// benchDef is the part of BENCHMARK.json a comparison needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadResults reads every result file in dir, grouped by workload and
// mode and ordered by seed, then file name.
func loadResults(dir string) (map[string][]result, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	slices.Sort(names)
	out := make(map[string][]result)
	for _, name := range names {
		if strings.HasSuffix(name, ".trace.json") {
			continue
		}
		blob, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		key := r.Workload
		if r.Trace {
			key += " (traced)"
		}
		out[key] = append(out[key], r)
	}
	for _, rs := range out {
		slices.SortStableFunc(rs, func(a, b result) int { return cmp.Compare(a.Seed, b.Seed) })
	}
	return out, nil
}

// verdict applies the acceptance rule to one metric's runs, paired in
// order. A change improved the metric when it wins at least nine tenths
// of the pairs and the medians differ, in its favour, by more than the
// parent's interquartile range. It regressed when its median is worse
// than the parent's by more than bound (a share of the parent's median).
// Otherwise it is no worse, unless the parent's own spread exceeds the
// bound and not every change run beats every parent run: then the
// runs cannot tell, and the metric is unresolved. A negative bound marks
// a metric without one, which can only improve, worsen by the same
// rule, or stay unresolved.
func verdict(parent, change []float64, higher bool, bound float64) (v string, wins, pairs int) {
	better := func(a, b float64) bool {
		if higher {
			return a > b
		}
		return a < b
	}
	pairs = min(len(parent), len(change))
	lost := 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			lost++
		}
	}
	if pairs == 0 {
		return "unresolved", 0, 0
	}
	q1, mp, q3 := quartiles(parent)
	mc := median(change)
	iqr := q3 - q1
	switch {
	case wins*10 >= pairs*9 && better(mc, mp) && math.Abs(mc-mp) > iqr:
		return "improved", wins, pairs
	case bound < 0:
		if lost*10 >= pairs*9 && better(mp, mc) && math.Abs(mc-mp) > iqr {
			return "worse", wins, pairs
		}
		return "unresolved", wins, pairs
	}
	worse := mc - mp
	if higher {
		worse = mp - mc
	}
	if worse > bound*math.Abs(mp) {
		return "regressed", wins, pairs
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	if iqr > bound*math.Abs(mp) && !allBetter {
		return "unresolved", wins, pairs
	}
	return "no worse", wins, pairs
}

// runCompare prints one row per workload and metric comparing the result
// files of two directories, and fails on any regression or on a higher
// failure ratio.
func runCompare(benchPath, parentDir, changeDir string, w io.Writer) error {
	blob, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(blob, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := loadResults(parentDir)
	if err != nil {
		return err
	}
	change, err := loadResults(changeDir)
	if err != nil {
		return err
	}
	type rule struct {
		name   string
		higher bool
		bound  float64
	}
	var rules []rule
	for _, m := range def.EndToEnd {
		rules = append(rules, rule{m.Name, m.Better == "higher", m.Bound})
	}
	for _, m := range def.PerLayer {
		rules = append(rules, rule{m.Name, m.Better == "higher", -1})
	}
	keys := make([]string, 0, len(parent))
	for k := range parent {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var bad []string
	fmt.Fprintf(w, "%-18s %-30s %-32s %-32s %-6s %s\n", "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "verdict")
	for _, k := range keys {
		ps, cs := parent[k], change[k]
		if len(cs) == 0 {
			continue
		}
		for _, ru := range rules {
			pv, cv := values(ps, ru.name), values(cs, ru.name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v, wins, pairs := verdict(pv, cv, ru.higher, ru.bound)
			fmt.Fprintf(w, "%-18s %-30s %-32s %-32s %-6s %s\n", k, ru.name, spread(pv), spread(cv), fmt.Sprintf("%d/%d", wins, pairs), v)
			if v == "regressed" {
				bad = append(bad, k+" "+ru.name)
			}
		}
		pf, cf := failRatio(ps), failRatio(cs)
		v := "no worse"
		if cf > pf {
			v = "regressed"
			bad = append(bad, k+" fail_ratio")
		}
		fmt.Fprintf(w, "%-18s %-30s %-32.4g %-32.4g %-6s %s\n", k, "fail_ratio", pf, cf, "", v)
	}
	if len(bad) > 0 {
		return errors.New("regressed: " + strings.Join(bad, ", "))
	}
	return nil
}

// values collects one metric across runs.
func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func spread(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g/%.4g/%.4g", q1, m, q3)
}

// failRatio is the share of attempted operations that failed.
func failRatio(rs []result) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
