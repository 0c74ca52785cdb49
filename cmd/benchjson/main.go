// Command benchjson turns `go test -bench` text output into a stable
// JSON artifact (BENCH.json) and gates benchmark regressions against a
// baseline, so CI can record the performance trajectory per PR.
//
// Usage:
//
//	go test -bench . -benchtime 1x -benchmem -run '^$' . ./cmd/mwld | benchjson parse -o BENCH.json
//	benchjson compare -threshold 25 -match '^BenchmarkTable2|^BenchmarkFig' baseline.json BENCH.json
//
// parse reads benchmark output from a file argument or stdin and writes
// the JSON report (stdout by default). compare exits non-zero when any
// matched benchmark's ns/op regressed by more than the threshold
// percentage; a missing baseline file is a graceful no-op so the gate
// passes on the first run ever.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Report is the BENCH.json schema.
type Report struct {
	Schema     int                  `json:"schema"`
	Goos       string               `json:"goos,omitempty"`
	Goarch     string               `json:"goarch,omitempty"`
	Pkg        string               `json:"pkg,omitempty"` // space-separated, in input order
	CPU        string               `json:"cpu,omitempty"`
	Benchmarks map[string]Benchmark `json:"benchmarks"`
}

// Benchmark is one `go test -bench` result line. Metrics carries the
// custom b.ReportMetric units (penalty-%, capped, mean-area, …).
type Benchmark struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// cpuSuffix is the -GOMAXPROCS tail go test appends to benchmark names;
// it is stripped so reports compare across machines with different core
// counts.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "parse":
		if err := runParse(os.Args[2:]); err != nil {
			fatal(err)
		}
	case "compare":
		regressed, err := runCompare(os.Args[2:])
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: benchjson parse [-o out.json] [bench.out]\n")
	fmt.Fprintf(os.Stderr, "       benchjson compare [-threshold pct] [-match regex] baseline.json new.json\n")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func runParse(args []string) error {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := io.Reader(os.Stdin)
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	rep, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found in input")
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// parseBench reads `go test -bench` output into a Report. Output of
// several packages (one `pkg:` header each) merges into one report; a
// benchmark name reported by two packages is an error, since the
// report keys rows by name alone.
func parseBench(r io.Reader) (*Report, error) {
	rep := &Report{Schema: 1, Benchmarks: map[string]Benchmark{}}
	pkg, pkgOf := "", map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			rep.Pkg = strings.TrimSpace(rep.Pkg + " " + pkg)
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		name, b, ok := parseLine(line)
		if !ok {
			continue
		}
		if prev, seen := pkgOf[name]; seen && prev != pkg {
			return nil, fmt.Errorf("benchmark %s reported by both %s and %s", name, prev, pkg)
		}
		pkgOf[name] = pkg
		rep.Benchmarks[name] = b
	}
	return rep, sc.Err()
}

// parseLine decodes one result line:
//
//	BenchmarkName/sub-8   4   291163 ns/op   12 B/op   3 allocs/op   1.5 extra-unit
func parseLine(line string) (string, Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", Benchmark{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Benchmark{}, false
	}
	b := Benchmark{Iterations: iters}
	sawNs := false
	for k := 2; k+1 < len(fields); k += 2 {
		v, err := strconv.ParseFloat(fields[k], 64)
		if err != nil {
			return "", Benchmark{}, false
		}
		switch unit := fields[k+1]; unit {
		case "ns/op":
			b.NsPerOp = v
			sawNs = true
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	if !sawNs {
		return "", Benchmark{}, false
	}
	return cpuSuffix.ReplaceAllString(fields[0], ""), b, true
}

// regression is one over-threshold increase in a gated unit.
type regression struct {
	Name    string
	Unit    string
	Old     float64
	New     float64
	Percent float64
}

func runCompare(args []string) (regressed bool, err error) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 25, "max allowed ns/op regression, percent")
	match := fs.String("match", "", "regexp of benchmark names to gate (default: all)")
	minNs := fs.Float64("min-ns", 0, "ignore benchmarks whose baseline ns/op is below this noise floor")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("compare needs exactly two files: baseline.json new.json")
	}
	baseRaw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("benchjson: no baseline at %s; skipping regression gate\n", fs.Arg(0))
			return false, nil
		}
		return false, err
	}
	newRaw, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return false, err
	}
	var base, cur Report
	if err := json.Unmarshal(baseRaw, &base); err != nil {
		return false, fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	if err := json.Unmarshal(newRaw, &cur); err != nil {
		return false, fmt.Errorf("%s: %w", fs.Arg(1), err)
	}
	var re *regexp.Regexp
	if *match != "" {
		re, err = regexp.Compile(*match)
		if err != nil {
			return false, err
		}
	}
	regressions, report := compareReports(&base, &cur, re, *threshold, *minNs)
	fmt.Print(report)
	return len(regressions) > 0, nil
}

// compareReports diffs ns/op, B/op and allocs/op for benchmarks present
// in both reports (filtered by re, skipping baselines under the minNs
// noise floor) and returns the over-threshold regressions plus a
// human-readable summary. Memory units are gated only when the baseline
// recorded them (a baseline taken without -benchmem has zeros there),
// so adding -benchmem never fails the first gated run.
func compareReports(base, cur *Report, re *regexp.Regexp, threshold, minNs float64) ([]regression, string) {
	var names []string
	for name := range cur.Benchmarks {
		if re != nil && !re.MatchString(name) {
			continue
		}
		if _, ok := base.Benchmarks[name]; !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var regressions []regression
	var sb strings.Builder
	for _, name := range names {
		ob, nb := base.Benchmarks[name], cur.Benchmarks[name]
		if ob.NsPerOp <= 0 {
			continue
		}
		if ob.NsPerOp < minNs {
			fmt.Fprintf(&sb, "- %-48s %14.0f ns/op baseline under the %.0f ns noise floor; not gated\n", name, ob.NsPerOp, minNs)
			continue
		}
		units := []struct {
			unit     string
			old, new float64
		}{
			{"ns/op", ob.NsPerOp, nb.NsPerOp},
			{"B/op", ob.BytesPerOp, nb.BytesPerOp},
			{"allocs/op", ob.AllocsPerOp, nb.AllocsPerOp},
		}
		for _, u := range units {
			if u.old <= 0 {
				continue // unit not recorded in the baseline
			}
			pct := 100 * (u.new - u.old) / u.old
			mark := " "
			if pct > threshold {
				mark = "✗"
				regressions = append(regressions, regression{name, u.unit, u.old, u.new, pct})
			}
			fmt.Fprintf(&sb, "%s %-48s %14.0f → %14.0f %-9s %+7.1f%%\n", mark, name, u.old, u.new, u.unit, pct)
		}
	}
	if len(names) == 0 {
		sb.WriteString("benchjson: no overlapping benchmarks to compare\n")
	}
	if len(regressions) > 0 {
		fmt.Fprintf(&sb, "benchjson: %d benchmark unit(s) regressed more than %.0f%%\n", len(regressions), threshold)
	} else {
		fmt.Fprintf(&sb, "benchjson: no ns/op, B/op or allocs/op regression above %.0f%% across %d gated benchmark(s)\n", threshold, len(names))
	}
	return regressions, sb.String()
}
