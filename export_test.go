package mwl

import "repro/internal/wire"

// HitBytes returns the response a cache hit on sol answers with, as the
// Service encodes it when the solution enters the cache.
func HitBytes(sol Solution) []byte { return newLRUEntry("", sol).hit }

// ParseProblem and ParseSolution decode data in the canonical subset
// only: they report false where DecodeProblem and DecodeSolution hand
// the document to encoding/json.
func ParseProblem(data []byte) (Problem, bool) {
	pr := wire.NewParser(data)
	p, ok := parseProblem(&pr)
	return p, ok && pr.Done()
}

func ParseSolution(data []byte) (Solution, bool) {
	pr := wire.NewParser(data)
	sol, ok := parseSolution(&pr)
	return sol, ok && pr.Done()
}
