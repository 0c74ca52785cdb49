package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	mwl "repro"
	"repro/internal/shard"
	"repro/internal/tgff"
)

// Serve: one pair of mwld replicas per run, sharded by problem hash,
// replicating each solved entry to both and verifying every answer; one
// client process with two keep-alive connections in a closed loop,
// request i going to replica i mod 2. A Zipf draw over a pool of problems
// mixes cache hits with solves, cache inserts and replication writes, and
// half the requests land on a replica that relays them to the owner.
//
// The traffic is synthetic: no access log of a deployed mwld exists, so
// none of the parameters below is measured. The Zipf skew s=1.1 (a skew
// commonly assumed for cache popularity), the pool of 1500 problems with
// N in [10,60] (the paper's sizes, up to under a third of
// core.BatchMinOps), one request in ten a batch of eight (enough batches
// for a per-batch median), two client connections and one replica pair
// that stays up for the run are design choices the benchmark was
// specified with. Three further choices rest on measurements, recorded
// in the README: the cold rounds below, λ = 2·λ_min, and the pool sizes
// stepped by a stride rather than drawn.
//
// Every round sends the same sequence with every problem's Options.Seed
// set to the round number, which dpalloc ignores but the cache key
// includes: each round starts cold and has the same hits and misses
// whatever the pace, while the replicas, their caches and the
// connections stay up for the whole run. Replayed warm instead, the
// share of single solves that hit climbs from 0.74 in the first
// thousand requests to 0.97 in the eighth (seeds 1–3), so a faster
// commit, measuring more rounds, would measure an easier mix.

var (
	servePool     = 1500 // distinct problems; 40 at smoke scale
	serveMinN     = 10
	serveMaxN     = 60
	serveRequests = 1000 // per sequence; 60 at smoke scale
	serveParts    = 3    // sequences, one per round in turn
	serveZipfS    = 1.1
	serveBatch    = 8 // problems per batch request
	serveRelax    = 1.0
	serveReplay   = 50 // distinct problems replayed through the shadow loop; 5 at smoke scale
	// serveCache caps each replica's cache at about two rounds' distinct
	// problems (a round asks for about 430), so memory levels off by the
	// third round.
	serveCache = 1024
)

// serveInput is the pool and the request sequences of one seed: each
// request's pool indices, one for a single solve.
type serveInput struct {
	pool []job
	seqs [][][]int
}

// reqs is round r's sequence.
func (in serveInput) reqs(r int) [][]int { return in.seqs[r%len(in.seqs)] }

// zipfSequence draws the pool indices of each request: a tenth are
// batches, the rest single solves.
func zipfSequence(seed int64, pool, requests int) [][]int {
	rnd := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rnd, serveZipfS, 1, uint64(pool-1))
	seq := make([][]int, requests)
	for i := range seq {
		n := 1
		if rnd.Intn(10) == 0 {
			n = serveBatch
		}
		for k := 0; k < n; k++ {
			seq[i] = append(seq[i], int(z.Uint64()))
		}
	}
	return seq
}

func serveJobs(seed int64, smoke bool) (serveInput, error) {
	poolSize, requests := servePool, serveRequests
	if smoke {
		poolSize, requests = 40, 60
	}
	rnd := rand.New(rand.NewSource(seed))
	var in serveInput
	for i := 0; i < poolSize; i++ {
		// Pool index i is Zipf rank i. The sizes step through the range
		// by a stride coprime to its width, so the popular head, which
		// sets the hit latency, spans the sizes alike for every seed.
		n := serveMinN + i*37%(serveMaxN-serveMinN+1)
		j, err := newJob(i, tgff.Config{N: n, Seed: rnd.Int63()}, serveRelax, "")
		if err != nil {
			return in, err
		}
		in.pool = append(in.pool, j)
	}
	for range serveParts {
		in.seqs = append(in.seqs, zipfSequence(rnd.Int63(), poolSize, requests))
	}
	return in, nil
}

// keyed is pool problem idx as round r sends it.
func (in serveInput) keyed(idx, r int) mwl.Problem {
	p := in.pool[idx].p
	p.Options.Seed = int64(r) + 1
	return p
}

// bodies encodes round r's requests.
func (in serveInput) bodies(r int) ([][]byte, error) {
	out := make([][]byte, len(in.reqs(r)))
	for i, idx := range in.reqs(r) {
		var v any = in.keyed(idx[0], r)
		if len(idx) > 1 {
			br := mwl.BatchRequest{}
			for _, k := range idx {
				br.Problems = append(br.Problems, in.keyed(k, r))
			}
			v = br
		}
		var err error
		if out[i], err = json.Marshal(v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probe is the client for health checks and scrapes; it keeps no
// connections, so none outlives a replica.
var probe = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}

// replica is one running mwld process.
type replica struct {
	addr   string // normalized, as in -peers
	cmd    *exec.Cmd
	stderr *bytes.Buffer
}

// startReplicas starts the mwld pair and waits until both answer
// /healthz, trying fresh ports when a pair fails to come up.
func startReplicas(ctx context.Context, bin string) ([]*replica, error) {
	if bin == "" {
		return nil, errors.New("the serve workload needs -mwld")
	}
	var err error
	for try := 0; try < 3; try++ {
		var reps []*replica
		if reps, err = launchReplicas(ctx, bin, try); err == nil {
			return reps, nil
		}
	}
	return nil, err
}

// replicaAddrs returns two loopback addresses whose ports are free now.
// The ports lie below Linux's ephemeral range (32768 up), so no outgoing
// connection can take one between this check and a replica binding it.
func replicaAddrs(try int) ([]string, error) {
	var addrs []string
	first := (os.Getpid()*8 + try*2) % 12000
	for k := 0; k < 12000 && len(addrs) < 2; k++ {
		a := fmt.Sprintf("127.0.0.1:%d", 20000+(first+k)%12000)
		if l, err := net.Listen("tcp", a); err == nil {
			l.Close()
			addrs = append(addrs, "http://"+a)
		}
	}
	if len(addrs) < 2 {
		return nil, errors.New("no free loopback ports for the replicas")
	}
	return addrs, nil
}

func launchReplicas(ctx context.Context, bin string, try int) ([]*replica, error) {
	addrs, err := replicaAddrs(try)
	if err != nil {
		return nil, err
	}
	var reps []*replica
	for _, a := range addrs {
		cmd := exec.Command(bin,
			"-addr", strings.TrimPrefix(a, "http://"),
			"-peers", strings.Join(addrs, ","), "-self", a,
			"-replicate", "2", "-workers", "1", "-verify",
			"-cache-entries", strconv.Itoa(serveCache))
		// The replicas must not outlive the benchmark, however it ends.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		r := &replica{addr: a, cmd: cmd, stderr: &bytes.Buffer{}}
		cmd.Stderr = r.stderr
		if err := cmd.Start(); err != nil {
			stopReplicas(reps)
			return nil, err
		}
		reps = append(reps, r)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range reps {
		for {
			resp, err := probe.Get(r.addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) || ctx.Err() != nil {
				stopReplicas(reps)
				return nil, fmt.Errorf("mwld at %s never became healthy: %v; it wrote: %s", r.addr, err, bytes.TrimSpace(r.stderr.Bytes()))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return reps, nil
}

// stopReplicas interrupts each replica, waits for it to exit (killing it
// after a grace period) and returns their summed peak RSS and CPU time.
func stopReplicas(reps []*replica) (rssMB, cpuS float64) {
	for _, r := range reps {
		_ = r.cmd.Process.Signal(os.Interrupt)
	}
	for _, r := range reps {
		kill := time.AfterFunc(10*time.Second, func() { _ = r.cmd.Process.Kill() })
		_ = r.cmd.Wait() // an interrupted replica exits non-zero
		kill.Stop()
		if ru, ok := r.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rssMB += float64(ru.Maxrss) / 1024
			cpuS += rusageSeconds(ru)
		}
	}
	return rssMB, cpuS
}

// cluster is a run's replica pair and the client's two connections.
type cluster struct {
	reps    []*replica
	addrs   []string
	clients [2]*http.Client
}

// startCluster starts the pair setupReps times, keeping the last, and
// returns it with the median time from start until both answer
// /healthz.
func startCluster(ctx context.Context, bin string) (*cluster, float64, error) {
	reps, boot, err := timeSetup(func() ([]*replica, error) { return startReplicas(ctx, bin) },
		func(reps []*replica) { stopReplicas(reps) })
	if err != nil {
		return nil, 0, err
	}
	c := &cluster{reps: reps}
	for _, r := range reps {
		c.addrs = append(c.addrs, r.addr)
	}
	for g := range c.clients {
		c.clients[g] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return c, boot, nil
}

// stop closes the connections and stops the replicas, once, returning
// their summed peak RSS and CPU time.
func (c *cluster) stop() (rssMB, cpuS float64) {
	for _, cl := range c.clients {
		cl.CloseIdleConnections()
	}
	rssMB, cpuS = stopReplicas(c.reps)
	c.reps = nil
	return rssMB, cpuS
}

// reply is the client-side record of one request.
type reply struct {
	start, end time.Time
	status     int
	body       []byte
	err        error
}

// serveRound is one round's requests and measurements.
type serveRound struct {
	reqs    [][]int
	bodies  [][]byte
	replies []reply
	wall    time.Duration        // sending time, the pauses between segments left out
	scrapes []map[string]float64 // /metrics of both replicas, summed, at 250 ms steps
	// slowdown is the machine's slowdown read in the pauses.
	slowdown float64
}

// serveSegments is how many segments a round is sent in. In the pause
// after each, once replication has drained, the kernel runs twice
// (speed.go).
const serveSegments = speedSamples / 2

// runServeRound sends round r's sequence. Client g sends requests
// i ≡ g (mod 2) to replica g.
func runServeRound(c *cluster, in serveInput, r int, scrape bool) (serveRound, error) {
	sr := serveRound{reqs: in.reqs(r)}
	var err error
	if sr.bodies, err = in.bodies(r); err != nil {
		return sr, err
	}
	sr.replies = make([]reply, len(sr.reqs))
	// client sends the requests of [lo, hi) that are its own.
	client := func(g, lo, hi int) {
		for i := lo + (lo+g)%2; i < hi; i += 2 {
			path := "/v1/solve"
			if len(sr.reqs[i]) > 1 {
				path = "/v1/solve/batch"
			}
			rp := &sr.replies[i]
			rp.start = time.Now()
			resp, err := c.clients[g].Post(c.addrs[g]+path, "application/json", bytes.NewReader(sr.bodies[i]))
			if err == nil {
				rp.body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				rp.status = resp.StatusCode
			}
			rp.end = time.Now()
			rp.err = err
		}
	}
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	if scrape {
		scraper.Add(1)
		go func() {
			defer scraper.Done()
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if m, err := scrapeAll(c.addrs); err == nil {
						sr.scrapes = append(sr.scrapes, m)
					}
				}
			}
		}()
	}
	var probe speedProbe
	n := len(sr.reqs)
	for s := 0; s < serveSegments && err == nil; s++ {
		start := time.Now()
		both(client, s*n/serveSegments, (s+1)*n/serveSegments)
		sr.wall += time.Since(start)
		if err = c.drain(); err == nil {
			probe.sample()
			probe.sample()
		}
	}
	close(stop)
	scraper.Wait()
	sr.slowdown = probe.slowdown()
	return sr, err
}

// both runs client 0 and client 1 over [lo, hi) concurrently and waits
// for them.
func both(client func(g, lo, hi int), lo, hi int) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); client(0, lo, hi) }()
	go func() { defer wg.Done(); client(1, lo, hi) }()
	wg.Wait()
}

// drain waits until neither replica has solved entries left to
// replicate, so that a round's writes do not spill into the next round.
func (c *cluster) drain() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := scrapeAll(c.addrs)
		if err != nil {
			return err
		}
		if m["mwld_replication_pending"] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication still has %v entries pending after 10 s", m["mwld_replication_pending"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scrapeAll reads /metrics of every replica and sums each metric family
// across labels and replicas.
func scrapeAll(addrs []string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, a := range addrs {
		resp, err := probe.Get(a + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			name, _, _ := strings.Cut(line[:i], "{")
			out[name] += v
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkReplies verifies every answer of a round and returns, per pool
// problem answered, its area.
func checkReplies(res *result, in serveInput, sr serveRound) map[int]int64 {
	areas := make(map[int]int64)
	for i, rp := range sr.replies {
		idx := sr.reqs[i]
		res.Attempted++
		if rp.err != nil || rp.status != http.StatusOK {
			res.fail("request %d: status %d: %v: %s", i, rp.status, rp.err, bytes.TrimSpace(rp.body))
			continue
		}
		var sols []mwl.Solution
		if len(idx) == 1 {
			var sol mwl.Solution
			if err := json.Unmarshal(rp.body, &sol); err != nil {
				res.fail("request %d: %v", i, err)
				continue
			}
			sols = append(sols, sol)
		} else {
			var br mwl.BatchResponse
			if err := json.Unmarshal(rp.body, &br); err != nil || len(br.Results) != len(idx) {
				res.fail("request %d: undecodable batch response: %v", i, err)
				continue
			}
			for _, r := range br.Results {
				if r.Error != "" || r.Solution == nil {
					res.fail("request %d: batch result error %q", i, r.Error)
					sols = nil
					break
				}
				sols = append(sols, *r.Solution)
			}
			if sols == nil {
				continue
			}
		}
		for k, sol := range sols {
			if err := mwl.Verify(in.pool[idx[k]].p, sol); err != nil {
				res.fail("request %d: %v", i, err)
				break
			}
			areas[idx[k]] = sol.Area
		}
	}
	return areas
}

func runServe(ctx context.Context, cfg config, res *result) error {
	in, gen, err := timeSetup(func() (serveInput, error) { return serveJobs(cfg.seed, cfg.smoke) }, nil)
	if err != nil {
		return err
	}
	c, boot, err := startCluster(ctx, cfg.mwld)
	if err != nil {
		return err
	}
	defer c.stop()
	res.set("setup_s", gen+boot, setupReps)
	if cfg.trace {
		return traceServe(ctx, cfg, res, in, c)
	}
	parts := len(in.seqs)
	tailP := tailPercentile(len(in.seqs[0]))
	opsPerS := make([][]float64, parts)
	p50s := make([][]float64, parts)
	tails := make([][]float64, parts)
	areas := make(map[int]int64)
	start := time.Now()
	rounds := 0
	for ; rounds < max(minRounds, parts) || fits(start, rounds, cfg.budget); rounds++ {
		sr, err := runServeRound(c, in, rounds, false)
		if err != nil {
			return err
		}
		maps.Copy(areas, checkReplies(res, in, sr))
		s := rounds % parts
		lat := latencies(sr.replies)
		f := sr.slowdown
		res.Slowdown = append(res.Slowdown, f)
		opsPerS[s] = append(opsPerS[s], float64(len(sr.reqs))/sr.wall.Seconds()*f)
		p50s[s] = append(p50s[s], percentile(lat, 50)/f)
		tails[s] = append(tails[s], percentile(lat, tailP)/f)
	}
	rss, _ := c.stop()
	var ratio float64
	for idx, a := range areas {
		ratio += float64(a) / float64(in.pool[idx].unshared)
	}
	n := rounds * len(in.seqs[0])
	res.set("ops_per_s", meanOfMedians(opsPerS), rounds)
	res.set("latency_p50_ms", meanOfMedians(p50s), n)
	res.setNote("latency_tail_ms", meanOfMedians(tails), n, fmt.Sprintf("p%g", tailP))
	res.set("area_ratio", ratio/float64(len(areas)), len(areas))
	res.set("peak_rss_mb", rss, len(c.addrs))
	return nil
}

// latencies returns the replies' latencies in ms.
func latencies(replies []reply) []float64 {
	out := make([]float64, len(replies))
	for i, rp := range replies {
		out[i] = ms(rp.end.Sub(rp.start))
	}
	return out
}

// traceServe is the serve workload's traced run: untraced rounds for
// half the budget, then as many traced rounds, each with a span per
// request and /metrics scraped every 250 ms; the wire codec timed on the
// same bodies; and the first distinct problems replayed through the
// traced dpalloc loop for the solve path's layer split.
func traceServe(ctx context.Context, cfg config, res *result, in serveInput, c *cluster) error {
	var plainWall, tracedWall time.Duration
	start := time.Now()
	rounds := 0
	for ; rounds == 0 || time.Since(start) < cfg.budget/2; rounds++ {
		sr, err := runServeRound(c, in, rounds, false)
		if err != nil {
			return err
		}
		checkReplies(res, in, sr)
		plainWall += sr.wall
	}
	ring, err := shard.New(c.addrs)
	if err != nil {
		return err
	}
	before, err := scrapeAll(c.addrs)
	if err != nil {
		return err
	}
	n := len(in.seqs[0])
	tr := newTracer()
	var hitOwner, hitOther, miss, batch []float64
	var scrapes []map[string]float64
	var first serveRound
	for r := 0; r < rounds; r++ {
		key := rounds + r // traced rounds start cold, like the untraced ones
		sr, err := runServeRound(c, in, key, true)
		if err != nil {
			return err
		}
		checkReplies(res, in, sr)
		if r == 0 {
			first = sr
		}
		tracedWall += sr.wall
		scrapes = append(scrapes, sr.scrapes...)
		// Classify single solves by cache outcome and by whether the
		// replica asked owns the problem.
		for i, rp := range sr.replies {
			idx := sr.reqs[i]
			tr.op = r*n + i
			d := ms(rp.end.Sub(rp.start))
			if len(idx) > 1 {
				tr.add("http.batch", rp.start, rp.end)
				batch = append(batch, d)
				continue
			}
			tr.add("http.solve", rp.start, rp.end)
			var sol struct {
				Cached bool `json:"cached"`
			}
			if json.Unmarshal(rp.body, &sol) != nil {
				continue
			}
			if !sol.Cached {
				miss = append(miss, d)
				continue
			}
			hash, err := in.keyed(idx[0], key).Hash()
			if err != nil {
				return err
			}
			if ring.Owner(hash) == c.addrs[i%2] {
				hitOwner = append(hitOwner, d)
			} else {
				hitOther = append(hitOther, d)
			}
		}
	}
	after, err := scrapeAll(c.addrs)
	if err != nil {
		return err
	}
	m := make(map[string]float64)
	for k, v := range after {
		m[k] = v - before[k]
	}
	_, cpuS := c.stop()
	ops := rounds * n
	res.set("trace.overhead_ratio", plainWall.Seconds()/tracedWall.Seconds(), ops)
	res.set("process.cpu_s_per_op", cpuS/float64(2*ops), 2*ops)
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return percentile(xs, 50)
	}
	res.set("http.hit_p50_ms", p50(slices.Concat(hitOwner, hitOther)), len(hitOwner)+len(hitOther))
	res.set("http.miss_p50_ms", p50(miss), len(miss))
	res.set("http.batch_p50_ms", p50(batch), len(batch))
	res.set("shard.relay_extra_ms", p50(hitOther)-p50(hitOwner), len(hitOther))

	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	solveMean := 0.0
	if cnt := m["mwld_solve_duration_seconds_count"]; cnt > 0 {
		solveMean = m["mwld_solve_duration_seconds_sum"] / cnt * 1000
	}
	res.set("service.solve_ms_mean", solveMean, int(m["mwld_solve_duration_seconds_count"]))
	depth := 0.0
	for _, s := range scrapes {
		depth = max(depth, s["mwld_queue_depth"])
	}
	res.set("service.queue_depth_max", depth, len(scrapes))
	res.set("service.hit_ratio", ratio(m["mwld_cache_hits_total"], m["mwld_cache_misses_total"]), ops)
	res.set("shard.forwarded_ratio", ratio(m["mwld_shard_forwarded_total"], m["mwld_shard_owned_total"]), ops)
	res.set("replicate.sent_per_round", m["mwld_replicate_sent_total"]/float64(rounds), rounds)
	res.set("replicate.dropped_per_round", m["mwld_replicate_dropped_total"]/float64(rounds), rounds)

	traceWire(res, tr, first)

	// The solve path's layer split, from the first distinct problems
	// replayed in process.
	replay := serveReplay
	if cfg.smoke {
		replay = 5
	}
	var dc dpCounters
	var lc layerCounters
	seen := make(map[int]bool)
	for _, req := range first.reqs {
		for _, idx := range req {
			if seen[idx] || len(seen) >= replay {
				continue
			}
			seen[idx] = true
			tr.op = ops + idx
			p := in.pool[idx].p
			want, err := mwl.Solve(ctx, p)
			if err != nil {
				return err
			}
			sol, err := shadowSolve(ctx, p, tr, &dc)
			res.Attempted++
			if err != nil || !matchesSolve(ctx, p, sol, want) {
				res.fail("pool problem %d: shadow loop answered differently from mwl.Solve: %v", idx, err)
				continue
			}
			s := tr.begin("check", -1)
			if err := mwl.Verify(p, sol); err != nil {
				res.fail("pool problem %d traced: %v", idx, err)
			}
			tr.end(s)
		}
	}
	res.spans = tr.spans
	setLayerMetrics(res, tr.spans, &dc, &lc)
	return nil
}

// traceWire times, in this process, the wire work a replica does per
// request on the same bodies: decoding the request, hashing each
// problem, and encoding the response.
func traceWire(res *result, tr *tracer, sr serveRound) {
	var dec, hash, enc time.Duration
	for i, idx := range sr.reqs {
		tr.op = i
		s := tr.begin("wire.decode", -1)
		t := time.Now()
		var problems []mwl.Problem
		if len(idx) == 1 {
			var p mwl.Problem
			_ = json.Unmarshal(sr.bodies[i], &p) // encoded by this benchmark
			problems = append(problems, p)
		} else {
			var br mwl.BatchRequest
			_ = json.Unmarshal(sr.bodies[i], &br)
			problems = br.Problems
		}
		dec += time.Since(t)
		tr.end(s)
		s = tr.begin("wire.hash", -1)
		t = time.Now()
		for _, p := range problems {
			_, _ = p.Hash()
		}
		hash += time.Since(t)
		tr.end(s)
		var v any
		if len(idx) == 1 {
			v = &mwl.Solution{}
		} else {
			v = &mwl.BatchResponse{}
		}
		if json.Unmarshal(sr.replies[i].body, v) != nil {
			continue
		}
		s = tr.begin("wire.encode", -1)
		t = time.Now()
		_, _ = json.MarshalIndent(v, "", "  ")
		enc += time.Since(t)
		tr.end(s)
	}
	n := float64(len(sr.reqs))
	res.set("wire.decode_us", float64(dec)/1e3/n, len(sr.reqs))
	res.set("wire.hash_us", float64(hash)/1e3/n, len(sr.reqs))
	res.set("wire.encode_us", float64(enc)/1e3/n, len(sr.reqs))
}
