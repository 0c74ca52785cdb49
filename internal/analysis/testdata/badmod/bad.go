// Package badmod violates every mwlvet invariant exactly once; the
// integration test asserts each analyzer fires through the real
// `go vet -vettool` pipeline.
package badmod

import (
	"context"
	"math/rand"
)

// SolveAll loops without polling ctx: ctxpoll.
func SolveAll(ctx context.Context, xs []int) int {
	_ = ctx
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// FanOut spawns per item: boundedspawn.
func FanOut(xs []int, out chan<- int) {
	for _, x := range xs {
		go func() { out <- x }()
	}
}

// Pick draws from the global generator: seededrand.
func Pick() int {
	return rand.Intn(10)
}

// Record is a wire struct with an untagged exported field: wiretag.
type Record struct {
	ID   string `json:"id"`
	Name string
}

// Latency names a duration in milliseconds, not seconds: metricname.
const Latency = "mwld_latency_ms"
