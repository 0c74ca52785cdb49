// Command mwlbench is the repository's end-to-end benchmark. It runs
// seeded workloads against the solver library and the mwld service,
// checks every answer, and prints each end-to-end metric with its unit
// and sample count; with -trace 1 it instead prints per-layer metrics
// measured from spans recorded around calls into each layer.
//
// Usage:
//
//	bash cmd/mwlbench/run.sh [-workload paper,large,search,serve] [-seed 2001] [-seconds 25] [-trace 0|1] [-out DIR]
//	bash cmd/mwlbench/run.sh -compare PARENT_DIR CHANGE_DIR
//
// run.sh builds mwlbench and mwld from source under .bench_build and
// passes -mwld. Each workload listed runs in a child process of its own,
// so peak memory and process-lived caches are per workload. Output lines
// read "workload metric value unit n=samples"; the last line is one JSON
// object with the keys correct, attempted, failed and metrics. Each run
// also writes its result to DIR, and a traced run its first spans to
// DIR/<workload>.trace.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees, reported by
// every workload's untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"area_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of single layers, reported by every
// workload's traced run. A layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"bind.ms_per_op", "ms"}, {"bind.alloc_mb_per_op", "MB"}, {"bind.evals_per_call", "count"}, {"bind.merges_per_call", "count"},
	{"sched.ms_per_op", "ms"}, {"sched.calls_per_op", "count"}, {"sched.deadlock_ratio", "ratio"},
	{"refine.ms_per_op", "ms"}, {"refine.victims_per_call", "count"},
	{"wcg.ms_per_op", "ms"}, {"wcg.kinds_per_op", "count"},
	{"core.rounds_per_op", "count"}, {"core.configs_per_op", "count"}, {"core.infeasible_config_ratio", "ratio"}, {"core.phase_coverage", "ratio"},
	{"assemble.ms_per_op", "ms"}, {"datapath.verify_ms_per_op", "ms"}, {"check.ms_per_op", "ms"},
	{"ilp.ms_per_op", "ms"}, {"ilp.nodes_per_op", "count"}, {"ilp.ms_per_node", "ms"}, {"ilp.proven_ratio", "ratio"},
	{"anneal.ms_per_op", "ms"}, {"anneal.moves_per_s", "1/s"}, {"anneal.accept_ratio", "ratio"}, {"portfolio.ms_per_op", "ms"},
	{"http.hit_p50_ms", "ms"}, {"http.batch_p50_ms", "ms"}, {"wire.decode_us", "us"}, {"wire.hash_us", "us"}, {"wire.encode_us", "us"},
	{"http.miss_p50_ms", "ms"}, {"service.solve_ms_mean", "ms"}, {"service.queue_depth_max", "count"},
	{"shard.relay_extra_ms", "ms"}, {"shard.forwarded_ratio", "ratio"}, {"service.hit_ratio", "ratio"}, {"replicate.sent_per_round", "count"}, {"replicate.dropped_per_round", "count"},
	{"process.cpu_s_per_op", "s"}, {"process.alloc_mb_per_op", "MB"}, {"process.gc_cycles_per_op", "count"}, {"trace.overhead_ratio", "ratio"},
}

// config is one workload run's settings.
type config struct {
	workload string
	seed     int64
	budget   time.Duration // measuring time of the run
	trace    bool
	smoke    bool   // tiny inputs, for the package test
	mwld     string // mwld binary, for the serve workload
	out      string // result directory; empty writes nothing
}

// metric is one reported value with the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// result is one workload run's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Slowdown holds the machine's slowdown each round's timings were
	// scaled by (speed.go).
	Slowdown []float64 `json:"slowdown,omitempty"`

	spans    []span
	failures []string
}

func newResult(cfg config) *result {
	return &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Metrics: make(map[string]metric)}
}

// set records a metric; its unit comes from the metric tables.
func (r *result) set(name string, v float64, n int) {
	r.setNote(name, v, n, "")
}

func (r *result) setNote(name string, v float64, n int, note string) {
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit, N: n, Note: note}
			return
		}
	}
	panic("mwlbench: undeclared metric " + name)
}

// fail counts a failed operation, keeping the first messages.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// workloadDef names a workload and its runner.
type workloadDef struct {
	name string
	run  func(context.Context, config, *result) error
}

// workloads lists the workloads in run order.
var workloads = []workloadDef{
	{"paper", inProcess(paperJobs, 1, paperGolden)},
	{"large", inProcess(largeJobs, largeParts, "")},
	{"search", inProcess(searchJobs, searchParts, "")},
	{"serve", runServe},
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mwlbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mwlbench", flag.ContinueOnError)
	var (
		names   = fs.String("workload", "paper,large,search,serve", "comma-separated workloads to run")
		seed    = fs.Int64("seed", 2001, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 25, "measuring time per workload run")
		trace   = fs.Int("trace", 0, "1 measures per-layer metrics from spans instead of end-to-end metrics")
		out     = fs.String("out", ".bench_build/results", "directory for result and span files (empty = none)")
		mwld    = fs.String("mwld", "", "mwld binary for the serve workload")
		scale   = fs.String("scale", "full", "input size: full, or smoke for a quick check")
		compare = fs.Bool("compare", false, "compare result directories PARENT_DIR CHANGE_DIR instead of running")
		bench   = fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds used by -compare")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs PARENT_DIR and CHANGE_DIR")
		}
		return runCompare(*bench, fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *scale != "full" && *scale != "smoke" {
		return fmt.Errorf("-scale must be full or smoke, not %q", *scale)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	list := strings.Split(*names, ",")
	for _, w := range list {
		if !slices.ContainsFunc(workloads, func(d workloadDef) bool { return d.name == w }) {
			return fmt.Errorf("unknown workload %q", w)
		}
	}
	if len(list) > 1 {
		return runChildren(list, args, stdout)
	}
	cfg := config{
		workload: list[0],
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		smoke:    *scale == "smoke",
		mwld:     *mwld,
		out:      *out,
	}
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		return err
	}
	return report(cfg, res, stdout)
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	res := newResult(cfg)
	for _, w := range workloads {
		if w.name == cfg.workload {
			if err := w.run(ctx, cfg, res); err != nil {
				return nil, fmt.Errorf("workload %s: %w", cfg.workload, err)
			}
		}
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.name]; !ok {
				res.set(d.name, 0, 0)
			}
		}
	}
	for _, d := range want {
		if _, ok := res.Metrics[d.name]; !ok {
			return nil, fmt.Errorf("workload %s reported no %s", cfg.workload, d.name)
		}
	}
	for name := range res.Metrics {
		if !slices.ContainsFunc(want, func(d metricDef) bool { return d.name == name }) {
			delete(res.Metrics, name)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// report prints the metric lines and the closing JSON line, and writes
// the result and span files.
func report(cfg config, res *result, w io.Writer) error {
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "mwlbench: %s: failure: %s\n", res.Workload, f)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d", res.Workload, name, m.Value, m.Unit, m.N)
		if m.Note != "" {
			fmt.Fprintf(w, " %s", m.Note)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s attempted %d failed %d", res.Workload, res.Attempted, res.Failed)
	if len(res.Slowdown) > 0 {
		fmt.Fprintf(w, " slowdown %.3g", median(res.Slowdown))
	}
	fmt.Fprintln(w)
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return err
		}
		mode := "e2e"
		if cfg.trace {
			mode = "traced"
		}
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s.%s.seed%d.%d.json", res.Workload, mode, res.Seed, time.Now().UnixNano())
		if err := os.WriteFile(filepath.Join(cfg.out, name), append(blob, '\n'), 0o644); err != nil {
			return err
		}
		if cfg.trace {
			if err := writeSpans(filepath.Join(cfg.out, res.Workload+".trace.json"), res.spans); err != nil {
				return err
			}
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value)}
	for name, m := range res.Metrics {
		last.Metrics[name] = value{m.Value, m.Unit}
	}
	blob, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(blob))
	if !res.Correct {
		return fmt.Errorf("workload %s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// runChildren runs each workload in a child process of this binary with
// otherwise unchanged arguments, passing its output through.
func runChildren(list, args []string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range list {
		cmd := exec.Command(self, append(slices.Clone(args), "-workload", w)...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is this process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageSeconds(&ru)
}

func rusageSeconds(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// setupReps is how many times a run sets up, so that the set-up metric,
// their median, is steady.
const setupReps = 15

// minRounds is how many rounds a run measures at least, however long
// they take, so that every timing is a median over rounds.
const minRounds = 3

// timeSetup runs build setupReps times and returns its last result with
// the median build time, scaled by the slowdown of kernel runs between
// the builds (speed.go). drop, when not nil, releases each earlier
// result, untimed. Each build starts after a collection, so that none
// pays for an earlier one's garbage.
func timeSetup[T any](build func() (T, error), drop func(T)) (T, float64, error) {
	var v T
	var ts []float64
	var probe speedProbe
	for i := 0; i < setupReps; i++ {
		probe.sample()
		runtime.GC()
		t0 := time.Now()
		var err error
		if v, err = build(); err != nil {
			return v, 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
		if drop != nil && i < setupReps-1 {
			drop(v)
		}
	}
	probe.sample()
	return v, median(ts) / probe.slowdown(), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
