// Package metricname lints metric name literals: every mwld_ name must
// follow the project convention. A family's kind and its uniqueness are
// checked where it is registered, by internal/metrics.
//
// Conventions enforced on any string literal containing an mwld_ name:
//
//   - names match mwld_[a-z][a-z0-9_]* — lowercase, no dashes, no
//     double or trailing underscores;
//   - counters end in _total, never _totals/_count/_num;
//   - durations and sizes use base units: _seconds and _bytes, never
//     _ms/_millis/_micros/_nanos/_sec/_secs;
//   - the histogram series suffixes _bucket/_sum/_count hang only off a
//     unit-suffixed histogram base (..._seconds, ..._bytes).
package metricname

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the metricname check.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc:  "mwld_* metric literals must follow Prometheus naming conventions",
	Run:  run,
}

var (
	nameRe  = regexp.MustCompile(`mwld_[A-Za-z0-9_-]*`)
	validRe = regexp.MustCompile(`^mwld_[a-z][a-z0-9_]*$`)
)

// badUnits maps forbidden suffixes to the convention they violate.
var badUnits = map[string]string{
	"_ms": "_seconds", "_millis": "_seconds", "_milliseconds": "_seconds",
	"_micros": "_seconds", "_microseconds": "_seconds",
	"_nanos": "_seconds", "_nanoseconds": "_seconds",
	"_sec": "_seconds", "_secs": "_seconds",
	"_totals": "_total", "_num": "_total", "_counter": "_total",
}

var seriesSuffixes = []string{"_bucket", "_sum", "_count"}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			text, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			for _, name := range nameRe.FindAllString(text, -1) {
				checkName(pass, lit.Pos(), name)
			}
			return true
		})
	}
	return nil
}

func checkName(pass *analysis.Pass, pos token.Pos, name string) {
	if name == "mwld_" {
		// A bare prefix is a prefix (HasPrefix checks, docs, regexps —
		// including this analyzer's own), not a metric name.
		return
	}
	if !validRe.MatchString(name) || strings.Contains(name, "__") || strings.HasSuffix(name, "_") {
		pass.Reportf(pos, "metric name %q is not of the form mwld_[a-z][a-z0-9_]*", name)
		return
	}
	base, isSeries := stripSeriesSuffix(name)
	if isSeries && !strings.HasSuffix(base, "_seconds") && !strings.HasSuffix(base, "_bytes") {
		pass.Reportf(pos,
			"histogram series %q hangs off base %q, which lacks a unit suffix (_seconds or _bytes)",
			name, base)
	}
	for bad, good := range badUnits {
		if strings.HasSuffix(base, bad) {
			pass.Reportf(pos, "metric name %q uses suffix %s; the convention is %s", name, bad, good)
		}
	}
}

func stripSeriesSuffix(name string) (base string, isSeries bool) {
	for _, s := range seriesSuffixes {
		if strings.HasSuffix(name, s) {
			return strings.TrimSuffix(name, s), true
		}
	}
	return name, false
}
