package metrics

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// registerPanic runs one registration and returns the message it
// panicked with, or "" when it registered.
func registerPanic(register func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	register()
	return ""
}

// TestRegistrationCheck: a family name must agree with its kind, and no
// family registers twice.
func TestRegistrationCheck(t *testing.T) {
	var r Registry
	nop := func() uint64 { return 0 }
	for _, tc := range []struct {
		name     string
		register func()
		want     string // substring of the panic; "" = registers
	}{
		{"goodCounter", func() { r.CounterFunc("mwld_requests_total", "", nop) }, ""},
		{"goodGauge", func() { r.GaugeFunc("mwld_queue_depth", "", func() int64 { return 0 }) }, ""},
		{"goodHist", func() { r.Histogram("mwld_solve_duration_seconds", "", "method", NewHistogram(1)) }, ""},
		{"goodBytes", func() { r.Histogram("mwld_body_bytes", "", "method", NewHistogram(1)) }, ""},
		{"goodLabelled", func() { r.Gauge("mwld_peer_up", "", "peer", new(Gauge)) }, ""},
		{"badKind", func() { r.CounterFunc("mwld_queue_len", "", nop) }, "must end in _total"},
		{"badLabelledKind", func() { r.Counter("mwld_wins", "", "method", new(Counter)) }, "must end in _total"},
		{"badHistKind", func() { r.Histogram("mwld_solves_fast", "", "method", NewHistogram(1)) }, "must carry a base unit suffix"},
		{"badGauge", func() { r.GaugeFunc("mwld_live_total", "", func() int64 { return 0 }) }, "must not end in _total"},
		{"dupReg", func() { r.Counter("mwld_requests_total", "", "method", new(Counter)) }, "registered more than once"},
	} {
		got := registerPanic(tc.register)
		if tc.want == "" && got != "" || !strings.Contains(got, tc.want) {
			t.Errorf("%s: panic %q, want %q", tc.name, got, tc.want)
		}
	}
	if len(r.fams) != 5 {
		t.Errorf("%d families registered, want the 5 good ones", len(r.fams))
	}
}

// TestExposition pins the text format: header lines, registration
// order, sorted and escaped label values, integer samples, cumulative
// buckets over the solve-latency bounds ending in le="+Inf", a sum
// below 1e-4, and a labelled family with no samples.
func TestExposition(t *testing.T) {
	var r Registry
	h := NewHistogram(0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300)
	h.Observe("slow", 2.5)
	h.Observe("slow", 1000)
	h.Observe("fast", 0.00005)
	var up Gauge
	up.Set("http://127.0.0.1:8081", 0)
	up.Set("http://127.0.0.1:8080", 1)
	var wins, none Counter
	wins.Add("a\"b\\c\nd", 3)
	wins.Add("dpalloc", 1<<40)
	r.Histogram("mwld_solve_duration_seconds", "Solve wall-clock latency by method.", "method", h)
	r.CounterFunc("mwld_cache_hits_total", "Cache hits.", func() uint64 { return 7 })
	r.GaugeFunc("mwld_cache_bytes", "Help with a \\ and a\nnewline.", func() int64 { return 268435456 })
	r.Gauge("mwld_peer_up", "Peer up.", "peer", &up)
	r.Counter("mwld_portfolio_wins_total", "Wins.", "method", &wins)
	r.Counter("mwld_solves_total", "Solves.", "method", &none)
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP mwld_solve_duration_seconds Solve wall-clock latency by method.
# TYPE mwld_solve_duration_seconds histogram
mwld_solve_duration_seconds_bucket{method="fast",le="0.001"} 1
mwld_solve_duration_seconds_bucket{method="fast",le="0.005"} 1
mwld_solve_duration_seconds_bucket{method="fast",le="0.025"} 1
mwld_solve_duration_seconds_bucket{method="fast",le="0.1"} 1
mwld_solve_duration_seconds_bucket{method="fast",le="0.5"} 1
mwld_solve_duration_seconds_bucket{method="fast",le="2.5"} 1
mwld_solve_duration_seconds_bucket{method="fast",le="10"} 1
mwld_solve_duration_seconds_bucket{method="fast",le="60"} 1
mwld_solve_duration_seconds_bucket{method="fast",le="300"} 1
mwld_solve_duration_seconds_bucket{method="fast",le="+Inf"} 1
mwld_solve_duration_seconds_sum{method="fast"} 5e-05
mwld_solve_duration_seconds_count{method="fast"} 1
mwld_solve_duration_seconds_bucket{method="slow",le="0.001"} 0
mwld_solve_duration_seconds_bucket{method="slow",le="0.005"} 0
mwld_solve_duration_seconds_bucket{method="slow",le="0.025"} 0
mwld_solve_duration_seconds_bucket{method="slow",le="0.1"} 0
mwld_solve_duration_seconds_bucket{method="slow",le="0.5"} 0
mwld_solve_duration_seconds_bucket{method="slow",le="2.5"} 1
mwld_solve_duration_seconds_bucket{method="slow",le="10"} 1
mwld_solve_duration_seconds_bucket{method="slow",le="60"} 1
mwld_solve_duration_seconds_bucket{method="slow",le="300"} 1
mwld_solve_duration_seconds_bucket{method="slow",le="+Inf"} 2
mwld_solve_duration_seconds_sum{method="slow"} 1002.5
mwld_solve_duration_seconds_count{method="slow"} 2
# HELP mwld_cache_hits_total Cache hits.
# TYPE mwld_cache_hits_total counter
mwld_cache_hits_total 7
# HELP mwld_cache_bytes Help with a \\ and a\nnewline.
# TYPE mwld_cache_bytes gauge
mwld_cache_bytes 268435456
# HELP mwld_peer_up Peer up.
# TYPE mwld_peer_up gauge
mwld_peer_up{peer="http://127.0.0.1:8080"} 1
mwld_peer_up{peer="http://127.0.0.1:8081"} 0
# HELP mwld_portfolio_wins_total Wins.
# TYPE mwld_portfolio_wins_total counter
mwld_portfolio_wins_total{method="a\"b\\c\nd"} 3
mwld_portfolio_wins_total{method="dpalloc"} 1099511627776
# HELP mwld_solves_total Solves.
# TYPE mwld_solves_total counter
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestCounterConcurrent: concurrent Adds to shared and distinct labels
// all count.
func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add("dpalloc", 1)
			}
			c.Add("anneal", 1)
		}()
	}
	wg.Wait()
	var r Registry
	r.Counter("wins_total", "", "method", &c)
	var buf bytes.Buffer
	r.WriteTo(&buf)
	if got := buf.String(); !strings.Contains(got, `wins_total{method="anneal"} 8`+"\n") ||
		!strings.Contains(got, `wins_total{method="dpalloc"} 800`+"\n") {
		t.Fatalf("counts:\n%s", got)
	}
}
