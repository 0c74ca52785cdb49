package main

import (
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
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

// checkMetricsGolden scrapes url's /metrics and compares its masked
// shape with testdata/name.
func checkMetricsGolden(t *testing.T, url, name string) {
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
	got := maskMetrics(string(body))
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

// TestMetricsGoldenSingle pins the /metrics families of a single
// replica with mwld's default admission control.
func TestMetricsGoldenSingle(t *testing.T) {
	svc := mwl.NewServiceWith(mwl.ServiceOptions{Workers: 2})
	srv := httptest.NewServer(newHandler(handlerConfig{
		svc: svc, maxBody: 1 << 20, batchMax: defaultBatchMax, maxNodes: defaultMaxNodes,
		adm: newAdmission(svc, 1024, 0, 0),
	}))
	defer srv.Close()
	metricsGoldenLoad(t, srv.URL)
	checkMetricsGolden(t, srv.URL, "metrics-single.golden")
}

// TestMetricsGoldenCluster pins the /metrics families of one replica of
// a two-replica cluster with health checking and -replicate 2: the
// shard routing, peer health and replication series on top of the
// single-replica ones. The scraped replica is the one that owns the
// dpalloc problem, so its per-method families have samples.
func TestMetricsGoldenCluster(t *testing.T) {
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
	checkMetricsGolden(t, owner, "metrics-cluster.golden")
}
