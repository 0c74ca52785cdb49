// Command mwlvet is the project's static-analysis suite: a vet tool
// that mechanically enforces the invariants earlier PRs fixed by hand —
// context polling in solver loops (ctxpoll), bounded goroutine fan-out
// (boundedspawn), caller-seeded randomness (seededrand), explicit wire
// schema tags and deterministic canonical encoding (wiretag), and
// Prometheus metric naming (metricname).
//
// Run it through the go command so every package (and its type
// information) is fed to the suite incrementally and cached:
//
//	go build -o bin/mwlvet ./cmd/mwlvet
//	go vet -vettool=$(pwd)/bin/mwlvet ./...
//
// A finding exits non-zero and fails `go vet`. To exempt a reviewed
// site, annotate the offending line (or the line above it):
//
//	//mwlvet:allow <analyzer> -- <reason>
package main

import (
	"repro/internal/analysis/suite"
	"repro/internal/analysis/unitchecker"
)

func main() {
	unitchecker.Main(suite.Analyzers()...)
}
