package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation share Op; Parent indexes the span
// that made the call, -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer holds a run's spans in memory until the run ends.
type tracer struct {
	base  time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.base)), Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	t.spans[i].End = int64(time.Since(t.base))
}

// add records an already-timed root span, for a layer timed on another
// goroutine.
func (t *tracer) add(name string, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)), Parent: -1, Op: t.op})
}

// selfTimes returns, per span name, the summed self time in nanoseconds:
// each span's duration minus the part of its interval that its children
// cover. Overlapping children are counted once, and a child sticking out
// of its parent only covers the part inside.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[i])
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// countSpans returns how many spans carry each name.
func countSpans(spans []span) map[string]int {
	out := make(map[string]int)
	for _, s := range spans {
		out[s.Name]++
	}
	return out
}

// maxSpanFile caps the spans written out; the metrics use them all.
const maxSpanFile = 100_000

// writeSpans stores the first maxSpanFile spans as one JSON array.
func writeSpans(path string, spans []span) error {
	spans = spans[:min(len(spans), maxSpanFile)]
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, "[")
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
