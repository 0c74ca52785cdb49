package datapath

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/dfg"
	"repro/internal/model"
	"repro/internal/wire"
)

// jsonDatapath is the wire encoding of a solution: the schedule plus the
// allocated instances with their bound operations. InstOf is derived on
// decode, so the format carries no redundant fields.
//
// AppendJSON and ParseWire handle the format by hand; this struct is the
// encoding/json schema UnmarshalJSON falls back to, and the definition
// both hand-written halves must agree with.
type jsonDatapath struct {
	Start     []int          `json:"start"`
	Instances []jsonInstance `json:"instances"`
}

type jsonInstance struct {
	Class string `json:"class"`        // "add" or "mul" (the hardware class)
	Hi    int    `json:"hi"`           // larger port width
	Lo    int    `json:"lo,omitempty"` // smaller port width; defaults to hi
	Ops   []int  `json:"ops"`          // operation ids bound to the instance
}

// MarshalJSON encodes the datapath in the wire format. The output is
// byte-identical to json.Marshal of the equivalent jsonDatapath, without
// reflection.
func (dp *Datapath) MarshalJSON() ([]byte, error) {
	return dp.AppendJSON(make([]byte, 0, 32+8*len(dp.Start)+40*len(dp.Instances))), nil
}

// AppendJSON appends the datapath's wire encoding, MarshalJSON's bytes,
// to b.
func (dp *Datapath) AppendJSON(b []byte) []byte {
	b = append(b, `{"start":[`...)
	for i, s := range dp.Start {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(s), 10)
	}
	b = append(b, `],"instances":[`...)
	for i, in := range dp.Instances {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"class":`...)
		b = wire.AppendString(b, in.Kind.Class.String())
		b = append(b, `,"hi":`...)
		b = strconv.AppendInt(b, int64(in.Kind.Sig.Hi), 10)
		if in.Kind.Sig.Lo != 0 {
			b = append(b, `,"lo":`...)
			b = strconv.AppendInt(b, int64(in.Kind.Sig.Lo), 10)
		}
		b = append(b, `,"ops":[`...)
		for j, o := range in.Ops {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(o), 10)
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}"...)
}

// UnmarshalJSON decodes a datapath from the wire format, rebuilding the
// InstOf index. Structural legality against a particular graph and
// library is the caller's business (Verify). A document in the
// canonical subset (see ParseWire) is decoded in one hand-written pass;
// anything else goes through encoding/json.
func (dp *Datapath) UnmarshalJSON(data []byte) error {
	p := wire.NewParser(data)
	if nd, ok := ParseWire(&p); ok && p.Done() {
		*dp = *nd
		return nil
	}
	nd, err := unmarshalSchema(data)
	if err != nil {
		return err
	}
	*dp = *nd
	return nil
}

// unmarshalSchema decodes data with encoding/json into jsonDatapath and
// builds the datapath from it: UnmarshalJSON's path for documents
// outside the canonical subset.
func unmarshalSchema(data []byte) (*Datapath, error) {
	var jd jsonDatapath
	if err := json.Unmarshal(data, &jd); err != nil {
		return nil, err
	}
	nd := &Datapath{Start: append([]int(nil), jd.Start...)}
	for ii, jin := range jd.Instances {
		class, err := model.ParseOpType(jin.Class)
		if err != nil {
			return nil, fmt.Errorf("datapath: instance %d: %w", ii, err)
		}
		if class != class.HardwareClass() {
			return nil, fmt.Errorf("datapath: instance %d class %q is not a hardware class", ii, jin.Class)
		}
		in := Instance{Kind: model.Kind{Class: class, Sig: wireSig(jin.Hi, jin.Lo)}}
		for _, o := range jin.Ops {
			in.Ops = append(in.Ops, dfg.OpID(o))
		}
		nd.Instances = append(nd.Instances, in)
	}
	if err := nd.link(); err != nil {
		return nil, err
	}
	return nd, nil
}

// wireSig is the signature of a decoded instance: an absent (zero) lo
// width defaults to hi.
func wireSig(hi, lo int) model.Signature {
	if lo == 0 {
		lo = hi
	}
	return model.Signature{Hi: hi, Lo: lo}
}

// link checks decoded instances against the schedule — valid
// signatures, every operation bound exactly once — and builds InstOf,
// the last step of both decoding paths.
func (dp *Datapath) link() error {
	n := len(dp.Start)
	dp.InstOf = make([]int, n)
	for i := range dp.InstOf {
		dp.InstOf[i] = -1
	}
	for ii, in := range dp.Instances {
		if !in.Kind.Sig.Valid() {
			return fmt.Errorf("datapath: instance %d has invalid signature %dx%d", ii, in.Kind.Sig.Hi, in.Kind.Sig.Lo)
		}
		for _, o := range in.Ops {
			if o < 0 || int(o) >= n {
				return fmt.Errorf("datapath: instance %d references operation %d outside [0,%d)", ii, o, n)
			}
			if dp.InstOf[o] >= 0 {
				return fmt.Errorf("datapath: operation %d bound to instances %d and %d", o, dp.InstOf[o], ii)
			}
			dp.InstOf[o] = ii
		}
	}
	for o, ii := range dp.InstOf {
		if ii < 0 {
			return fmt.Errorf("datapath: operation %d not bound to any instance", o)
		}
	}
	return nil
}

// minInstanceBytes is the length of the shortest instance object of the
// canonical subset, {"class":"add","hi":1,"ops":[]}.
const minInstanceBytes = len(`{"class":"add","hi":1,"ops":[]}`)

// ParseWire consumes one datapath object at p's cursor in the canonical
// subset of the wire format — the keys "start" and "instances", and
// instance objects with the keys "class", "hi", "lo" and "ops", each at
// most once and spelled exactly so; a class of "add" or "mul"; integers
// that fit an int; null only for the arrays — and checks its bindings
// as UnmarshalJSON does. It reports false, without an error, on
// anything outside the subset and on a datapath UnmarshalJSON would
// refuse: the caller falls back to encoding/json, which says why. The
// decoded value equals the one encoding/json's decode yields.
func ParseWire(p *wire.Parser) (*Datapath, bool) {
	dp := new(Datapath)
	var (
		ops  []dfg.OpID // every instance's operations, back to back
		ends []int      // per instance: the end of its operations in ops
	)
	ok := p.Members(func(key []byte) uint16 {
		switch string(key) {
		case "start":
			if rest := p.Rest(); bytes.IndexByte(rest, '[') >= 0 {
				end := max(bytes.IndexByte(rest, ']'), 0)
				dp.Start = make([]int, 0, bytes.Count(rest[:end], []byte{','})+1)
			}
			ok := p.Null() || p.Array(func() bool {
				s, ok := p.Int()
				dp.Start = append(dp.Start, s)
				return ok
			})
			if len(dp.Start) == 0 {
				dp.Start = nil // as encoding/json's decode appends them
			}
			return wire.Bit(1, ok)
		case "instances":
			if p.Null() {
				return 2
			}
			arr := arrayBytes(p.Rest())
			n := min(bytes.Count(arr, []byte{'{'}), len(arr)/minInstanceBytes)
			dp.Instances = make([]Instance, 0, n)
			ends = make([]int, 0, n)
			ops = make([]dfg.OpID, 0, len(dp.Start))
			return wire.Bit(2, p.Array(func() bool {
				in, ok := parseInstance(p, &ops)
				dp.Instances = append(dp.Instances, in)
				ends = append(ends, len(ops))
				return ok
			}))
		}
		return 0
	})
	if !ok {
		return nil, false
	}
	if len(dp.Instances) == 0 {
		dp.Instances = nil // as encoding/json's decode appends them
	}
	from := 0
	for i, end := range ends {
		if end > from {
			dp.Instances[i].Ops = ops[from:end:end]
		}
		from = end
	}
	if dp.link() != nil {
		return nil, false
	}
	return dp, true
}

// arrayBytes returns the array at the start of rest through its closing
// bracket, for sizing: nesting is counted, strings are not looked into,
// which is exact for every instances array ParseWire accepts — its only
// strings are keys and class names. Looking to the end of rest instead
// would size the incumbent of every problem in a batch for the
// instances of all the problems after it.
func arrayBytes(rest []byte) []byte {
	depth := 0
	for i, c := range rest {
		switch c {
		case '[', '{':
			depth++
		case ']', '}':
			if depth--; depth == 0 {
				return rest[:i+1]
			}
		}
	}
	return rest
}

// parseInstance consumes one instance object, appending its operations
// to ops.
func parseInstance(p *wire.Parser, ops *[]dfg.OpID) (Instance, bool) {
	var (
		class  []byte
		hi, lo int
	)
	ok := p.Members(func(key []byte) uint16 {
		var ok bool
		switch string(key) {
		case "class":
			class, ok = p.Str()
			return wire.Bit(1, ok)
		case "hi":
			hi, ok = p.Int()
			return wire.Bit(2, ok)
		case "lo":
			lo, ok = p.Int()
			return wire.Bit(4, ok)
		case "ops":
			return wire.Bit(8, p.Null() || p.Array(func() bool {
				o, ok := p.Int()
				*ops = append(*ops, dfg.OpID(o))
				return ok
			}))
		}
		return 0
	})
	var in Instance
	switch string(class) {
	case "add":
		in.Kind.Class = model.Add
	case "mul":
		in.Kind.Class = model.Mul
	default:
		return in, false // absent, unknown or not a hardware class
	}
	in.Kind.Sig = wireSig(hi, lo)
	return in, ok
}
