// Package metrics renders metric families in the Prometheus text
// exposition format (version 0.0.4) with the standard library only. A
// family is a counter or gauge read from its owner's state at scrape
// time, a Counter or Gauge partitioned by one label, or a fixed-bound
// Histogram partitioned by one label. A Registry checks each family's
// name against its kind when it is registered, refuses a family
// registered twice, and writes the families in registration order with
// the label values of each family sorted.
package metrics

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// ContentType is the Content-Type of the exposition WriteTo writes.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Registry is an ordered set of metric families. Families are
// registered before the first WriteTo, which may then run concurrently
// with updates to the instruments it reads. The zero value is empty and
// ready to use.
type Registry struct {
	fams []family
}

// family is one registered metric family; samples appends its sample
// lines to b.
type family struct {
	name, help, kind string
	samples          func(b []byte, name string) []byte
}

// check reports why name may not be registered as a family of kind: a
// counter must end in _total, a histogram in a base unit (_seconds or
// _bytes), a gauge never in _total, and no name twice.
func (r *Registry) check(name, kind string) error {
	for _, f := range r.fams {
		if f.name == name {
			return fmt.Errorf("metric family %s registered more than once", name)
		}
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("counter %q must end in _total", name)
		}
	case "histogram":
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
			return fmt.Errorf("histogram %q must carry a base unit suffix (_seconds or _bytes)", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			return fmt.Errorf("gauge %q must not end in _total (that suffix is reserved for counters)", name)
		}
	}
	return nil
}

// add registers a family. Family names are literals in the program, so
// a name check failing is a bug and panics.
func (r *Registry) add(name, help, kind string, samples func([]byte, string) []byte) {
	if err := r.check(name, kind); err != nil {
		panic(err)
	}
	r.fams = append(r.fams, family{name: name, help: help, kind: kind, samples: samples})
}

// CounterFunc registers an unlabelled counter whose value f reads at
// scrape time.
func (r *Registry) CounterFunc(name, help string, f func() uint64) {
	r.add(name, help, "counter", func(b []byte, name string) []byte {
		return fmt.Appendf(b, "%s %d\n", name, f())
	})
}

// GaugeFunc registers an unlabelled gauge whose value f reads at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.add(name, help, "gauge", func(b []byte, name string) []byte {
		return fmt.Appendf(b, "%s %d\n", name, f())
	})
}

// Counter registers c as a counter family whose samples are labelled
// label.
func (r *Registry) Counter(name, help, label string, c *Counter) {
	r.add(name, help, "counter", c.samples(label))
}

// Gauge registers g as a gauge family whose samples are labelled label.
func (r *Registry) Gauge(name, help, label string, g *Gauge) {
	r.add(name, help, "gauge", g.samples(label))
}

// Histogram registers h as a histogram family whose series are
// labelled label.
func (r *Registry) Histogram(name, help, label string, h *Histogram) {
	r.add(name, help, "histogram", func(b []byte, name string) []byte {
		return h.appendSeries(b, name, label)
	})
}

// WriteTo writes every family — # HELP, # TYPE, then its samples — in
// registration order. A labelled family with no samples yet writes its
// two header lines alone.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b []byte
	for _, f := range r.fams {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.kind)
		b = f.samples(b, f.name)
	}
	n, err := w.Write(b)
	return int64(n), err
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

// pair renders one label pair, name="value", with value escaped.
func pair(name, value string) string {
	return name + `="` + labelEscaper.Replace(value) + `"`
}

// formatFloat renders v in the shortest form that parses back to v.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// vec holds integer samples keyed by one label's value.
type vec[T uint64 | int64] struct {
	mu sync.Mutex
	m  map[string]T
}

// update applies f to label's sample, creating it at zero.
func (v *vec[T]) update(label string, f func(T) T) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.m == nil {
		v.m = make(map[string]T)
	}
	v.m[label] = f(v.m[label])
}

// samples returns the writer of v's sample lines, one per label value
// in sorted order.
func (v *vec[T]) samples(label string) func([]byte, string) []byte {
	return func(b []byte, name string) []byte {
		v.mu.Lock()
		defer v.mu.Unlock()
		for _, k := range slices.Sorted(maps.Keys(v.m)) {
			b = fmt.Appendf(b, "%s{%s} %d\n", name, pair(label, k), v.m[k])
		}
		return b
	}
}

// Counter is a counter partitioned by the value of one label. The zero
// value is ready to use and safe for concurrent use.
type Counter struct{ vec[uint64] }

// Add adds n to label's sample; Add(label, 0) makes the sample show at
// zero.
func (c *Counter) Add(label string, n uint64) {
	c.update(label, func(v uint64) uint64 { return v + n })
}

// Gauge is a gauge partitioned by the value of one label. The zero
// value is ready to use and safe for concurrent use.
type Gauge struct{ vec[int64] }

// Set sets label's sample to v.
func (g *Gauge) Set(label string, v int64) {
	g.update(label, func(int64) int64 { return v })
}

// Histogram counts observations into fixed buckets, partitioned by the
// value of one label. It is safe for concurrent use.
type Histogram struct {
	bounds []float64 // bucket upper bounds, ascending; +Inf is implicit

	mu     sync.Mutex
	series map[string]*histSeries
}

// histSeries is one label value's observations.
type histSeries struct {
	counts []uint64 // per bucket, not cumulative; the last is +Inf
	sum    float64
}

// NewHistogram returns a histogram over the given ascending bucket
// upper bounds; an observation v falls in the first bucket whose bound
// is at least v.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, series: make(map[string]*histSeries)}
}

// Observe records one observation v under label.
func (h *Histogram) Observe(label string, v float64) {
	i, _ := slices.BinarySearch(h.bounds, v)
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.series[label]
	if s == nil {
		s = &histSeries{counts: make([]uint64, len(h.bounds)+1)}
		h.series[label] = s
	}
	s.counts[i]++
	s.sum += v
}

// appendSeries appends every label value's series, sorted by label
// value: the cumulative _bucket samples ending in le="+Inf", then _sum
// and _count.
func (h *Histogram) appendSeries(b []byte, name, label string) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, k := range slices.Sorted(maps.Keys(h.series)) {
		s, l := h.series[k], pair(label, k)
		var cum uint64
		for i, c := range s.counts {
			cum += c
			le := "+Inf"
			if i < len(h.bounds) {
				le = formatFloat(h.bounds[i])
			}
			b = fmt.Appendf(b, "%s_bucket{%s,%s} %d\n", name, l, pair("le", le), cum)
		}
		b = fmt.Appendf(b, "%s_sum{%s} %s\n%s_count{%s} %d\n", name, l, formatFloat(s.sum), name, l, cum)
	}
	return b
}
