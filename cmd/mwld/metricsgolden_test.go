package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	mwl "repro"
	"repro/internal/shard"
)

var updateMetrics = flag.Bool("update-metrics", false, "re-record testdata/metrics-*.golden from the current /metrics output")

// labelValue matches one label pair of a sample line.
var labelValue = regexp.MustCompile(`(\w+)="(?:[^"\\]|\\.)*"`)

// maskMetrics reduces a Prometheus exposition to its shape: # HELP and
// # TYPE lines verbatim, sample lines with every label value and the
// sample value masked, and each family's masked samples kept once — so
// the result pins family names, their order, help text, types and label
// names, but not counts, ports, peers or how many methods or buckets
// happened to report.
func maskMetrics(body string) string {
	var out []string
	seen := map[string]bool{} // masked samples of the current family
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			clear(seen)
		} else {
			name, _, _ := strings.Cut(line, " ")
			line = labelValue.ReplaceAllString(name, `$1=_`) + " _"
			if seen[line] {
				continue
			}
			seen[line] = true
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n") + "\n"
}

// metricsGoldenProblem is the dpalloc problem metricsGoldenLoad solves.
func metricsGoldenProblem(t *testing.T) mwl.Problem {
	t.Helper()
	g := mwl.Fig1Graph()
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	return mwl.Problem{Graph: g, Lambda: lmin + 3}
}

// metricsGoldenLoad puts one dpalloc solve, its cache hit and one
// portfolio solve through url, so every per-method family and the
// portfolio win counter have samples to show.
func metricsGoldenLoad(t *testing.T, url string) {
	t.Helper()
	p := metricsGoldenProblem(t)
	for i := 0; i < 2; i++ {
		if resp, _ := postProblem(t, url, p); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve: status %d", resp.StatusCode)
		}
	}
	p.Method = "portfolio"
	p.Options = mwl.SolveOptions{Portfolio: []string{"dpalloc", "twostage"}, Seed: 1, AnnealMoves: 200}
	if resp, _ := postProblem(t, url, p); resp.StatusCode != http.StatusOK {
		t.Fatalf("portfolio solve: status %d", resp.StatusCode)
	}
}

// scrapeMetrics returns url's /metrics body.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// checkMetricsGolden scrapes url's /metrics and compares its masked
// shape with testdata/name.
func checkMetricsGolden(t *testing.T, url, name string) {
	t.Helper()
	got := maskMetrics(scrapeMetrics(t, url))
	path := filepath.Join("testdata", name)
	if *updateMetrics {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update-metrics)", err)
	}
	if got != string(want) {
		t.Fatalf("/metrics shape differs from %s; a renamed, dropped or reordered family breaks every scraper of it.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// metricsSingle serves a single replica with mwld's default admission
// control, puts metricsGoldenLoad through it, and returns its URL.
func metricsSingle(t *testing.T) string {
	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 2})
	srv := httptest.NewServer(newHandler(handlerConfig{
		svc: svc, maxBody: 1 << 20, batchMax: defaultBatchMax, maxNodes: defaultMaxNodes,
		adm: newAdmission(svc, 1024, 0, 0),
	}))
	t.Cleanup(srv.Close)
	metricsGoldenLoad(t, srv.URL)
	return srv.URL
}

// metricsCluster serves a two-replica cluster with health checking and
// -replicate 2, puts metricsGoldenLoad through the replica that owns
// the dpalloc problem, so its per-method families have samples, and
// returns that replica's URL.
func metricsCluster(t *testing.T) string {
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	var ring *shard.Ring
	for i := range lns {
		cl, err := newCluster(strings.Join(urls, ","), urls[i])
		if err != nil {
			t.Fatal(err)
		}
		ring = cl.ring
		opts := mwl.ServiceOptions{Workers: 2, Verify: true}
		rep := cl.attachReplicator(2)
		opts.OnSolved = rep.onSolved
		t.Cleanup(rep.close)
		svc := mwl.NewServiceWith(opts)
		hc := cl.attachHealth(testHealthConfig())
		t.Cleanup(hc.close)
		srv := httptest.NewUnstartedServer(newHandler(handlerConfig{
			svc: svc, maxBody: 1 << 20, batchMax: defaultBatchMax, maxNodes: defaultMaxNodes,
			cluster: cl, adm: newAdmission(svc, 1024, 0, 0),
		}))
		srv.Listener.Close()
		srv.Listener = lns[i]
		srv.Start()
		t.Cleanup(srv.Close)
	}
	key, err := metricsGoldenProblem(t).Hash()
	if err != nil {
		t.Fatal(err)
	}
	owner := ring.Owner(key)
	metricsGoldenLoad(t, owner)
	return owner
}

// TestMetricsGoldenSingle pins the /metrics families of a single
// replica with mwld's default admission control.
func TestMetricsGoldenSingle(t *testing.T) {
	checkMetricsGolden(t, metricsSingle(t), "metrics-single.golden")
}

// TestMetricsGoldenCluster pins the /metrics families of one replica of
// a two-replica cluster: the shard routing, peer health and replication
// series on top of the single-replica ones.
func TestMetricsGoldenCluster(t *testing.T) {
	checkMetricsGolden(t, metricsCluster(t), "metrics-cluster.golden")
}

// TestMetricsExpositionValid checks the unmasked /metrics of a single
// replica and of a cluster replica against the rules of the text
// format that the masked goldens cannot see.
func TestMetricsExpositionValid(t *testing.T) {
	t.Run("single", func(t *testing.T) { checkExposition(t, scrapeMetrics(t, metricsSingle(t))) })
	t.Run("cluster", func(t *testing.T) { checkExposition(t, scrapeMetrics(t, metricsCluster(t))) })
}

// checkExposition reports every violation in body of these rules: no
// family has two # TYPE lines; every sample belongs to the family of the
// # TYPE line above it; every label value parses and every sample value
// is a number; and each histogram series has non-decreasing buckets
// ending at le="+Inf", whose count its _count repeats.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	type series struct {
		bucket float64 // last bucket count
		inf    bool    // the le="+Inf" bucket was seen
		count  bool    // _count was seen
	}
	typed := map[string]bool{}
	hists := map[string]*series{} // by family and labels other than le
	family, kind := "", ""
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, kind, _ = strings.Cut(rest, " ")
			if typed[family] {
				t.Errorf("family %s has two # TYPE lines", family)
			}
			typed[family] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			t.Errorf("%q: %v", line, err)
			continue
		}
		suffix := ""
		if kind == "histogram" {
			for _, s := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(name, s) {
					name, suffix = strings.TrimSuffix(name, s), s
				}
			}
		}
		if name != family || (kind == "histogram") != (suffix != "") {
			t.Errorf("%q is not a sample of the %s family %s above it", line, kind, family)
			continue
		}
		if suffix == "" || suffix == "_sum" {
			continue
		}
		le := labels["le"]
		delete(labels, "le")
		key := fmt.Sprint(name, labels) // fmt sorts map keys
		s := hists[key]
		if s == nil {
			s = new(series)
			hists[key] = s
		}
		switch {
		case suffix == "_count":
			if !s.inf || value != s.bucket {
				t.Errorf("%q: _count differs from the le=\"+Inf\" bucket %v", line, s.bucket)
			}
			s.count = true
		case le == "" || s.inf:
			t.Errorf("%q: bucket without le or after le=\"+Inf\"", line)
		case value < s.bucket:
			t.Errorf("%q: bucket count falls below the previous %v", line, s.bucket)
		default:
			s.bucket, s.inf = value, le == "+Inf"
		}
	}
	for key, s := range hists {
		if !s.inf || !s.count {
			t.Errorf("histogram series %s lacks its le=\"+Inf\" bucket or its _count", key)
		}
	}
	if len(hists) == 0 {
		t.Error("no histogram series to check")
	}
}

// parseSample splits a sample line into its metric name, its label
// pairs with their values unescaped, and its value.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", nil, 0, errors.New("no metric name")
	}
	name, rest := line[:i], line[i:]
	labels = map[string]string{}
	if rest, ok := strings.CutPrefix(rest, "{"); ok {
		for !strings.HasPrefix(rest, "}") {
			k, v, ok := strings.Cut(rest, `="`)
			if !ok || k == "" || strings.ContainsAny(k, ` ,"{}`) {
				return "", nil, 0, fmt.Errorf("malformed label at %q", rest)
			}
			var val strings.Builder
			j := 0
			for ; j < len(v) && v[j] != '"'; j++ {
				if v[j] != '\\' {
					val.WriteByte(v[j])
					continue
				}
				if j++; j == len(v) || !strings.ContainsRune(`\"n`, rune(v[j])) {
					return "", nil, 0, fmt.Errorf("bad escape in label %s", k)
				}
				val.WriteString(map[byte]string{'\\': `\`, '"': `"`, 'n': "\n"}[v[j]])
			}
			if j == len(v) {
				return "", nil, 0, fmt.Errorf("unterminated label %s", k)
			}
			if _, dup := labels[k]; dup {
				return "", nil, 0, fmt.Errorf("label %s twice", k)
			}
			labels[k] = val.String()
			rest = strings.TrimPrefix(v[j+1:], ",")
		}
		line = rest[1:]
	} else {
		line = rest
	}
	v, ok := strings.CutPrefix(line, " ")
	if !ok {
		return "", nil, 0, errors.New("no space before the value")
	}
	value, err = strconv.ParseFloat(v, 64)
	return name, labels, value, err
}
