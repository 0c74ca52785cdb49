package mwl

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/wire"
)

// The v1 wire codec. Problems, Solutions and batch answers are encoded
// by hand, without reflection, into exactly the bytes json.Marshal
// writes under Go 1.24's encoding/json (omitzero honoured, map keys
// sorted), whatever toolchain builds the program; the struct tags are
// the schema both halves are checked against. Decoding takes one
// hand-written pass over a document in the canonical subset — the form
// the encoder writes, with any whitespace; see wire.Parser — and hands
// any other document to encoding/json, which keeps the last word on
// unusual and malformed input.

// Hash returns the canonical content hash of the problem: the SHA-256 of
// its canonical v1 JSON encoding (method name resolved, graph in
// canonical order, map keys sorted), rendered as hex. Problems that
// solve identically hash identically, which is what the Service keys its
// memoization on. A problem carrying an in-memory Lib override has no
// canonical encoding and cannot be hashed.
func (p Problem) Hash() (string, error) {
	buf := hashBufs.Get().(*[]byte)
	blob, err := p.AppendCanonical((*buf)[:0])
	var key string
	if err == nil {
		sum := sha256.Sum256(blob)
		var out [2 * sha256.Size]byte
		hex.Encode(out[:], sum[:])
		key = string(out[:])
	}
	if cap(blob) <= maxPooledHashBuf {
		*buf = blob[:0]
		hashBufs.Put(buf)
	}
	return key, err
}

// hashBufs holds Hash's encoding buffers; one larger than
// maxPooledHashBuf, from an outsized graph, is left to the collector.
var hashBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledHashBuf = 256 << 10

// AppendCanonical appends the canonical encoding Hash digests:
// AppendJSON's, with the method name resolved. A request decoded from it
// hashes as p does, so it is the form in which a problem is sent on.
func (p Problem) AppendCanonical(b []byte) ([]byte, error) {
	if p.Lib != nil {
		return b, errors.New("mwl: problem with in-memory Library override has no canonical hash")
	}
	p.Method = p.method()
	return p.AppendJSON(b)
}

// AppendJSON appends the problem's v1 JSON encoding to b. It fails only
// on a NaN or infinite annealing knob, as json.Marshal does.
func (p Problem) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, '{')
	if p.Method != "" {
		b = append(b, `"method":`...)
		b = wire.AppendString(b, p.Method)
		b = append(b, ',')
	}
	b = append(b, `"graph":`...)
	if p.Graph == nil {
		b = append(b, "null"...)
	} else {
		b = p.Graph.AppendJSON(b)
	}
	b = append(b, `,"lambda":`...)
	b = strconv.AppendInt(b, int64(p.Lambda), 10)
	if p.II != 0 {
		b = append(b, `,"ii":`...)
		b = strconv.AppendInt(b, int64(p.II), 10)
	}
	if l := p.Library; l != (LibrarySpec{}) {
		b = append(b, `,"library":`...)
		open := len(b)
		b = append(b, '{')
		b = appendInt(b, open, "adder_latency", int64(l.AdderLatency))
		b = appendInt(b, open, "mul_bits_per_cycle", int64(l.MulBitsPerCycle))
		b = appendInt(b, open, "adder_area_per_bit", l.AdderAreaPerBit)
		b = appendInt(b, open, "mul_area_scale", l.MulAreaScale)
		b = append(b, '}')
	}
	if o := p.Options; !o.IsZero() {
		b = append(b, `,"options":`...)
		var err error
		if b, err = o.appendJSON(b); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendJSON appends the options object, every knob omitempty.
func (o SolveOptions) appendJSON(b []byte) ([]byte, error) {
	open := len(b)
	b = append(b, '{')
	b = appendInt(b, open, "time_limit_ns", int64(o.TimeLimit))
	b = appendInt(b, open, "node_limit", int64(o.NodeLimit))
	if len(o.Limits) > 0 {
		b = wire.Key(b, open, "limits")
		b = appendMap(b, o.Limits)
	}
	if o.Incumbent != nil {
		b = wire.Key(b, open, "incumbent")
		b = o.Incumbent.AppendJSON(b)
	}
	b = appendInt(b, open, "seed", o.Seed)
	b = appendInt(b, open, "anneal_moves", int64(o.AnnealMoves))
	for _, f := range [...]struct {
		key string
		v   float64
	}{{"anneal_init_temp", o.AnnealInitTemp}, {"anneal_cooling", o.AnnealCooling}} {
		if f.v != 0 {
			var err error
			if b, err = wire.AppendFloat(wire.Key(b, open, f.key), f.v); err != nil {
				return b, fmt.Errorf("mwl: options %s: %w", f.key, err)
			}
		}
	}
	if len(o.Portfolio) > 0 {
		b = wire.Key(b, open, "portfolio")
		b = append(b, '[')
		for i, m := range o.Portfolio {
			if i > 0 {
				b = append(b, ',')
			}
			b = wire.AppendString(b, m)
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendInt appends an omitempty integer member of the object opened at
// index open of b.
func appendInt(b []byte, open int, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(wire.Key(b, open, key), v, 10)
}

// appendMap appends a string-keyed map of integers with its keys in
// sorted order, as encoding/json writes maps.
func appendMap[V int | int64](b []byte, m map[string]V) []byte {
	var buf [8]string
	keys := slices.AppendSeq(buf[:0], maps.Keys(m))
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = wire.AppendString(b, k)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(m[k]), 10)
	}
	return append(b, '}')
}

// AppendJSON appends the solution's v1 JSON encoding, json.Marshal's
// bytes, to b.
func (sol Solution) AppendJSON(b []byte) []byte {
	b = append(b, `{"method":`...)
	b = wire.AppendString(b, sol.Method)
	b = append(b, `,"datapath":`...)
	if sol.Datapath == nil {
		b = append(b, "null"...)
	} else {
		b = sol.Datapath.AppendJSON(b)
	}
	b = append(b, `,"area":`...)
	b = strconv.AppendInt(b, sol.Area, 10)
	b = append(b, `,"makespan":`...)
	b = strconv.AppendInt(b, int64(sol.Makespan), 10)
	if len(sol.AreaByKind) > 0 {
		b = append(b, `,"area_by_kind":`...)
		b = appendMap(b, sol.AreaByKind)
	}
	b = append(b, `,"elapsed_ns":`...)
	b = strconv.AppendInt(b, int64(sol.Elapsed), 10)
	if sol.Cached {
		b = append(b, cachedField...)
	}
	if st := sol.Stats; st != (SolveStats{}) {
		b = append(b, `,"stats":`...)
		open := len(b)
		b = append(b, '{')
		b = appendInt(b, open, "iterations", int64(st.Iterations))
		b = appendInt(b, open, "refinements", int64(st.Refinements))
		b = appendInt(b, open, "configs", int64(st.Configs))
		b = appendInt(b, open, "nodes", st.Nodes)
		b = appendInt(b, open, "vars", int64(st.Vars))
		b = appendInt(b, open, "rows", int64(st.Rows))
		if st.TimedOut {
			b = append(wire.Key(b, open, "timed_out"), "true"...)
		}
		b = appendInt(b, open, "moves", int64(st.Moves))
		b = appendInt(b, open, "accepted", int64(st.Accepted))
		b = appendInt(b, open, "merges", int64(st.Merges))
		b = appendInt(b, open, "evals", int64(st.Evals))
		if st.Winner != "" {
			b = wire.AppendString(wire.Key(b, open, "winner"), st.Winner)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// sizeHint estimates the length of the solution's encoding, so an
// encoder can size its buffer once.
func (sol *Solution) sizeHint() int {
	n := 256 + 24*len(sol.AreaByKind)
	if dp := sol.Datapath; dp != nil {
		n += 8*len(dp.Start) + 6*len(dp.InstOf) + 40*len(dp.Instances)
	}
	return n
}

// cachedField is what Cached=true adds to a Solution's JSON encoding.
const cachedField = `,"cached":true`

// BatchRequest is the wire form of a batch solve (POST /v1/solve/batch):
// a list of independent problems solved concurrently through one
// Service, deduplicated by canonical hash.
type BatchRequest struct {
	Problems []Problem `json:"problems"`
}

// BatchResponse is the wire form of a batch solve's outcome. Results
// aligns one-to-one with the request's Problems.
type BatchResponse struct {
	Results []BatchResultWire `json:"results"`
}

// BatchResultWire is one problem's outcome on the wire: exactly one of
// Solution or Error is set. Infeasible marks well-formed problems that
// provably have no datapath (as opposed to malformed problems or solver
// failures), mirroring the 422-vs-400 split of the single-solve
// endpoint.
type BatchResultWire struct {
	Solution   *Solution `json:"solution,omitempty"`
	Error      string    `json:"error,omitempty"`
	Infeasible bool      `json:"infeasible,omitempty"`
}

// Wire converts a Service batch outcome into its wire form.
func (r BatchResult) Wire() BatchResultWire {
	if r.Err != nil {
		return BatchResultWire{Error: r.Err.Error(), Infeasible: IsInfeasible(r.Err)}
	}
	sol := r.Solution
	return BatchResultWire{Solution: &sol}
}

// StreamResultWire is one NDJSON record of the streaming batch endpoint
// (POST /v1/solve/stream): a BatchResultWire tagged with the index of
// the problem it answers in the request's Problems array. Records are
// emitted as solves complete, so they arrive in completion order, not
// input order — clients reassemble by Index.
type StreamResultWire struct {
	Index int `json:"index"`
	BatchResultWire
}

// FromWire converts a wire-form result back into a BatchResult, the
// inverse of BatchResult.Wire up to error identity: a relayed error
// becomes a plain error carrying the original message, wrapping
// ErrInfeasible when the record was marked infeasible so the
// classification survives another Wire round trip. The mwld shard
// forwarder uses this to relay a peer's answer as its own.
func (r BatchResultWire) FromWire() BatchResult {
	if r.Error != "" {
		if r.Infeasible {
			return BatchResult{Err: fmt.Errorf("%w: %s", ErrInfeasible, r.Error)}
		}
		return BatchResult{Err: errors.New(r.Error)}
	}
	if r.Solution == nil {
		return BatchResult{Err: errors.New("mwl: wire result carries neither solution nor error")}
	}
	return BatchResult{Solution: *r.Solution}
}

// AppendBatchResponse appends the BatchResponse of results, the bytes
// json.Marshal writes for it, to b. A result carrying Hit bytes splices
// them in place of encoding its Solution.
func AppendBatchResponse(b []byte, results []BatchResult) []byte {
	b = append(b, `{"results":[`...)
	for i, r := range results {
		if i > 0 {
			b = append(b, ',')
		}
		open := len(b)
		b = r.appendMembers(append(b, '{'), open)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// AppendStreamRecord appends result i's StreamResultWire record, newline-
// terminated as json.Encoder writes it, to b. Hit bytes are spliced as
// in AppendBatchResponse.
func AppendStreamRecord(b []byte, i int, r BatchResult) []byte {
	open := len(b)
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = r.appendMembers(b, open)
	return append(b, "}\n"...)
}

// appendMembers appends r's BatchResultWire members to the object opened
// at index open of b.
func (r *BatchResult) appendMembers(b []byte, open int) []byte {
	if r.Err != nil {
		if msg := r.Err.Error(); msg != "" {
			b = wire.AppendString(wire.Key(b, open, "error"), msg)
		}
		if IsInfeasible(r.Err) {
			b = append(wire.Key(b, open, "infeasible"), "true"...)
		}
		return b
	}
	b = wire.Key(b, open, "solution")
	if len(r.Hit) > 0 {
		return append(b, r.Hit[:len(r.Hit)-1]...) // less the newline
	}
	return r.Solution.AppendJSON(b)
}

// DecodeProblem decodes data, one JSON document with nothing but
// whitespace around it, as a Problem.
func DecodeProblem(data []byte) (Problem, error) {
	pr := wire.NewParser(data)
	if p, ok := parseProblem(&pr); ok && pr.Done() {
		return p, nil
	}
	return unmarshal[Problem](data)
}

// DecodeBatchRequest decodes data as DecodeProblem does, as a
// BatchRequest. One string copy of data holds every operation name of
// every problem.
func DecodeBatchRequest(data []byte) (BatchRequest, error) {
	pr := wire.NewParser(data)
	var req BatchRequest
	ok := pr.Members(func(key []byte) uint16 {
		if string(key) != "problems" || pr.Null() {
			return 0 // unknown, or null: encoding/json decides
		}
		req.Problems = []Problem{}
		return wire.Bit(1, pr.Array(func() bool {
			p, ok := parseProblem(&pr)
			req.Problems = append(req.Problems, p)
			return ok
		}))
	})
	if ok && pr.Done() {
		return req, nil
	}
	return unmarshal[BatchRequest](data)
}

// DecodeSolution decodes data as DecodeProblem does, as a Solution.
func DecodeSolution(data []byte) (Solution, error) {
	pr := wire.NewParser(data)
	if sol, ok := parseSolution(&pr); ok && pr.Done() {
		return sol, nil
	}
	return unmarshal[Solution](data)
}

// unmarshal is the decoders' fallback for documents outside the
// canonical subset.
func unmarshal[T any](data []byte) (T, error) {
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// parseProblem consumes one Problem object in the canonical subset:
// the exact keys of its tags, each at most once; null only for the
// graph.
func parseProblem(pr *wire.Parser) (p Problem, ok bool) {
	ok = pr.Members(func(key []byte) uint16 {
		switch string(key) {
		case "method":
			var ok bool
			p.Method, ok = pr.Text()
			return wire.Bit(1, ok)
		case "graph":
			if pr.Null() {
				return 2
			}
			var ok bool
			p.Graph, ok = dfg.ParseWire(pr)
			return wire.Bit(2, ok)
		case "lambda":
			var ok bool
			p.Lambda, ok = pr.Int()
			return wire.Bit(4, ok)
		case "ii":
			var ok bool
			p.II, ok = pr.Int()
			return wire.Bit(8, ok)
		case "library":
			return wire.Bit(16, parseLibrary(pr, &p.Library))
		case "options":
			return wire.Bit(32, parseOptions(pr, &p.Options))
		}
		return 0
	})
	return p, ok
}

func parseLibrary(pr *wire.Parser, l *LibrarySpec) bool {
	return pr.Members(func(key []byte) uint16 {
		var ok bool
		switch string(key) {
		case "adder_latency":
			l.AdderLatency, ok = pr.Int()
			return wire.Bit(1, ok)
		case "mul_bits_per_cycle":
			l.MulBitsPerCycle, ok = pr.Int()
			return wire.Bit(2, ok)
		case "adder_area_per_bit":
			l.AdderAreaPerBit, ok = pr.Int64()
			return wire.Bit(4, ok)
		case "mul_area_scale":
			l.MulAreaScale, ok = pr.Int64()
			return wire.Bit(8, ok)
		}
		return 0
	})
}

func parseOptions(pr *wire.Parser, o *SolveOptions) bool {
	return pr.Members(func(key []byte) uint16 {
		var ok bool
		switch string(key) {
		case "time_limit_ns":
			var ns int64
			ns, ok = pr.Int64()
			o.TimeLimit = time.Duration(ns)
			return wire.Bit(1, ok)
		case "node_limit":
			o.NodeLimit, ok = pr.Int()
			return wire.Bit(2, ok)
		case "limits":
			o.Limits, ok = parseMap[int](pr)
			return wire.Bit(4, ok)
		case "incumbent":
			if pr.Null() {
				return 8
			}
			o.Incumbent, ok = datapath.ParseWire(pr)
			return wire.Bit(8, ok)
		case "seed":
			o.Seed, ok = pr.Int64()
			return wire.Bit(16, ok)
		case "anneal_moves":
			o.AnnealMoves, ok = pr.Int()
			return wire.Bit(32, ok)
		case "anneal_init_temp":
			o.AnnealInitTemp, ok = pr.Float()
			return wire.Bit(64, ok)
		case "anneal_cooling":
			o.AnnealCooling, ok = pr.Float()
			return wire.Bit(128, ok)
		case "portfolio":
			if pr.Null() {
				return 256
			}
			o.Portfolio = []string{}
			ok = pr.Array(func() bool {
				m, ok := pr.Text()
				o.Portfolio = append(o.Portfolio, m)
				return ok
			})
			return wire.Bit(256, ok)
		}
		return 0
	})
}

// parseMap consumes a string-keyed map of integers, or null, as
// encoding/json decodes it: an empty object is an empty, non-nil map,
// and a repeated key keeps its last value.
func parseMap[V int | int64](pr *wire.Parser) (map[string]V, bool) {
	if pr.Null() {
		return nil, true
	}
	m := make(map[string]V)
	ok := pr.Object(func(key []byte) bool {
		v, ok := pr.Int64()
		m[string(key)] = V(v)
		return ok && int64(V(v)) == v
	})
	return m, ok
}

// parseSolution consumes one Solution object in the canonical subset:
// the exact keys of its tags, each at most once; null only for the
// datapath and the area breakdown.
func parseSolution(pr *wire.Parser) (sol Solution, ok bool) {
	ok = pr.Members(func(key []byte) uint16 {
		var ok bool
		switch string(key) {
		case "method":
			sol.Method, ok = pr.Text()
			return wire.Bit(1, ok)
		case "datapath":
			if pr.Null() {
				return 2
			}
			sol.Datapath, ok = datapath.ParseWire(pr)
			return wire.Bit(2, ok)
		case "area":
			sol.Area, ok = pr.Int64()
			return wire.Bit(4, ok)
		case "makespan":
			sol.Makespan, ok = pr.Int()
			return wire.Bit(8, ok)
		case "area_by_kind":
			sol.AreaByKind, ok = parseMap[int64](pr)
			return wire.Bit(16, ok)
		case "elapsed_ns":
			var ns int64
			ns, ok = pr.Int64()
			sol.Elapsed = time.Duration(ns)
			return wire.Bit(32, ok)
		case "cached":
			sol.Cached, ok = pr.Bool()
			return wire.Bit(64, ok)
		case "stats":
			return wire.Bit(128, parseStats(pr, &sol.Stats))
		}
		return 0
	})
	return sol, ok
}

func parseStats(pr *wire.Parser, st *SolveStats) bool {
	return pr.Members(func(key []byte) uint16 {
		var ok bool
		switch string(key) {
		case "iterations":
			st.Iterations, ok = pr.Int()
			return wire.Bit(1, ok)
		case "refinements":
			st.Refinements, ok = pr.Int()
			return wire.Bit(2, ok)
		case "configs":
			st.Configs, ok = pr.Int()
			return wire.Bit(4, ok)
		case "nodes":
			st.Nodes, ok = pr.Int64()
			return wire.Bit(8, ok)
		case "vars":
			st.Vars, ok = pr.Int()
			return wire.Bit(16, ok)
		case "rows":
			st.Rows, ok = pr.Int()
			return wire.Bit(32, ok)
		case "timed_out":
			st.TimedOut, ok = pr.Bool()
			return wire.Bit(64, ok)
		case "moves":
			st.Moves, ok = pr.Int()
			return wire.Bit(128, ok)
		case "accepted":
			st.Accepted, ok = pr.Int()
			return wire.Bit(256, ok)
		case "merges":
			st.Merges, ok = pr.Int()
			return wire.Bit(512, ok)
		case "evals":
			st.Evals, ok = pr.Int()
			return wire.Bit(1024, ok)
		case "winner":
			st.Winner, ok = pr.Text()
			return wire.Bit(2048, ok)
		}
		return 0
	})
}
