package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// readBenchmark loads the repository's BENCHMARK.json.
func readBenchmark(t *testing.T) (e2e, layer []metricDef) {
	t.Helper()
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &def); err != nil {
		t.Fatal(err)
	}
	for _, m := range def.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range def.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	return e2e, layer
}

// TestBenchmarkDeclaresReportedMetrics keeps BENCHMARK.json and the
// metrics the program reports in step.
func TestBenchmarkDeclaresReportedMetrics(t *testing.T) {
	e2e, layer := readBenchmark(t)
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", layer, perLayer)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, d := range slices.Concat(e2e, layer) {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q", d.name)
		}
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that each declared metric is printed and no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mwld and runs every workload")
	}
	mwld := filepath.Join(t.TempDir(), "mwld")
	if out, err := exec.Command("go", "build", "-o", mwld, "repro/cmd/mwld").CombinedOutput(); err != nil {
		t.Fatalf("building mwld: %v\n%s", err, out)
	}
	e2e, layer := readBenchmark(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"-workload", w.name, "-scale", "smoke", "-seconds", "1", "-trace", trace, "-mwld", mwld, "-out", t.TempDir()}
			if err := mainErr(args, &out); err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w.name, trace, err, out.String())
			}
			want := e2e
			if trace == "1" {
				want = layer
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if trace == "0" {
				// However short the budget, the timings are medians over
				// at least minRounds rounds.
				rounds := regexp.MustCompile(`^` + w.name + ` ops_per_s \S+ ops/s n=(\d+)$`)
				for _, l := range lines {
					if m := rounds.FindStringSubmatch(l); m != nil {
						if n, _ := strconv.Atoi(m[1]); n < minRounds {
							t.Errorf("%s: ops_per_s over %d rounds, want at least %d", w.name, n, minRounds)
						}
					}
				}
			}
			for _, d := range want {
				prefix := w.name + " " + d.name + " "
				if !slices.ContainsFunc(lines, func(l string) bool {
					return strings.HasPrefix(l, prefix) && strings.Contains(l, " "+d.unit+" n=")
				}) {
					t.Errorf("%s trace=%s: no line for %s in %s", w.name, trace, d.name, d.unit)
				}
			}
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%s: last line is not JSON: %v", w.name, trace, err)
			}
			keys := make([]string, 0, len(last))
			for k := range last {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s trace=%s: last line keys %v", w.name, trace, keys)
			}
			if f, _ := strconv.Atoi(string(last["failed"])); f != 0 || string(last["correct"]) != "true" {
				t.Errorf("%s trace=%s: failed %s, correct %s", w.name, trace, last["failed"], last["correct"])
			}
		}
	}
}
