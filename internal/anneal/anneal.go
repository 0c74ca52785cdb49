// Package anneal implements a simulated-annealing datapath allocator
// over joint (schedule, binding) moves, an alternative point in the
// quality/runtime trade-off space next to the paper's one-shot DPAlloc
// heuristic: stochastic search routinely beats constructive heuristics
// on irregular graphs at the price of a move budget.
//
// The state is a partition of the operations into operator instances
// (each instance's concrete kind is the element-wise join of its
// members' signatures, so an instance always covers everything bound to
// it) plus a scheduling-priority permutation. A binding-aware list
// scheduler derives the schedule: operations become ready when their
// predecessors finish and serialize on their shared instance, so every
// evaluated state is a structurally legal datapath and only the latency
// constraint λ can fail. Moves are the classic allocation neighborhood:
//
//   - merge: fuse two instances of one hardware class (area drops to the
//     joined kind's cost, latencies may grow);
//   - split: evict one operation onto a fresh minimal instance;
//   - rebind: move one operation to another existing instance;
//   - slot swap: exchange two operations' scheduling priorities, which
//     re-times the derived schedule without touching the binding.
//
// Acceptance is standard Metropolis with geometric cooling: improving
// feasible moves always pass, worsening feasible moves pass with
// probability exp(-ΔA/T), infeasible proposals (makespan > λ) are
// rejected outright. The RNG is seeded from Options, so a fixed seed
// reproduces the identical solution bit for bit; the inner loop polls
// ctx every proposal and returns promptly on cancellation.
//
// The mover is allocation-free in steady state. Moves mutate the
// current state in place and are undone on rejection instead of cloning
// per proposal; instance kinds, latencies and areas are cached per
// group and repaired incrementally for the one or two groups a move
// touches, so the area delta driving Metropolis costs O(|group|), not a
// rescheduling pass. Scheduling — the expensive part — is skipped
// entirely when it cannot matter: worsening moves draw their Metropolis
// verdict from the incremental delta first, and growing groups are
// screened by a sound makespan lower bound (serialized instance
// occupancy between the group's min-latency head and tail paths,
// sharpened per member with ancestor/descendant counts from the
// precedence closure in dfg.Reach) that proves many merges infeasible
// without a schedule. Only surviving proposals pay for the list
// scheduler, which times a state in one pass over flat scratch:
//
//   - An operation becomes ready once its predecessors are placed and
//     ranks are a permutation, so the placement order (least rank first
//     among ready operations) depends only on the priorities and the
//     DAG. It is computed (the ready set a bitset over ranks) when a
//     swap changes the priorities, reused unchanged by rebind, merge and
//     split, and the previous order is reinstated when a swap is undone.
//   - Every slot on one instance lasts that instance's latency, so its
//     occupied slots kept sorted by start are sorted by end too: the
//     first slot ending after an operation's ready time is a binary
//     search, the earliest free start lies past the run of slots that
//     overlap from there, and the new slot is inserted in order.
package anneal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/datapath"
	"repro/internal/dfg"
	"repro/internal/model"
)

// ErrInfeasible is returned when no datapath can meet the latency
// constraint (λ below λ_min).
var ErrInfeasible = errors.New("anneal: latency constraint infeasible")

// Options tunes the annealer. The zero value applies the documented
// defaults; Seed 0 is a valid (and the default) seed.
type Options struct {
	// Seed seeds the move RNG. Identical seeds (with identical inputs
	// and options) produce identical solutions.
	Seed int64
	// Moves is the total proposal budget; default 20000.
	Moves int
	// InitTemp is the starting temperature in area units; <= 0 derives
	// it from the initial area (5% of it, at least 1).
	InitTemp float64
	// Cooling is the geometric decay applied per epoch, in (0, 1);
	// default 0.95. An epoch is max(64, 8·n) proposals.
	Cooling float64
}

func (o Options) withDefaults() Options {
	if o.Moves <= 0 {
		o.Moves = 20000
	}
	if o.Cooling <= 0 || o.Cooling >= 1 {
		o.Cooling = 0.95
	}
	return o
}

// Stats reports how the annealer ran.
type Stats struct {
	Moves    int // proposals evaluated
	Accepted int // proposals accepted (including sideways/worsening)
	Improved int // times a new best-so-far was recorded
	Epochs   int // completed cooling epochs
	Merges   int // accepted merge moves (instances fused)
	Evals    int // full list-schedule evaluations run
}

// state is one point of the search space. Groups hold operation IDs per
// instance (empty groups are dead slots awaiting reuse); prio ranks
// operations for the list scheduler (lower rank schedules first among
// simultaneously ready operations).
type state struct {
	groups  [][]dfg.OpID
	groupOf []int
	prio    []int
}

func (s *state) clone() *state {
	c := &state{
		groups:  make([][]dfg.OpID, len(s.groups)),
		groupOf: append([]int(nil), s.groupOf...),
		prio:    append([]int(nil), s.prio...),
	}
	for i, g := range s.groups {
		if len(g) > 0 {
			c.groups[i] = append([]dfg.OpID(nil), g...)
		}
	}
	return c
}

// moveKind discriminates the undo records.
type moveKind uint8

const (
	mvRebind moveKind = iota
	mvMerge
	mvSplit
	mvSwap
)

// groupSave snapshots one group's cached cost facts for undo.
type groupSave struct {
	kind model.Kind
	lat  int
	area int64
}

// move is the undo record of one in-place mutation: which groups were
// touched and their cached facts before the move.
type move struct {
	kind     moveKind
	o        dfg.OpID
	src, dst int
	srcOps   []dfg.OpID // merge: src's member slice before fusion
	dstLen   int        // merge: len(groups[dst]) before fusion
	i, j     int        // swap: the two operations
	saved    [2]groupSave
}

// allocator carries the immutable problem facts plus the incrementally
// maintained cost caches and reusable scratch shared by every proposal.
type allocator struct {
	d      *dfg.Graph
	lib    *model.Library
	lambda int
	class  []model.OpType // hardware class per op
	sig    []model.Signature
	reach  *dfg.Reach // precedence closure (static: the DFG never changes)
	minLat []int      // latency of each op's minimal dedicated kind
	head   []int      // min-latency ASAP start per op
	tail   []int      // min-latency path from an op's finish to the sink
	indeg0 []int      // predecessor counts, copied into scratch per placeOrder

	// Per-group cost caches, indexed like state.groups, plus the total.
	kinds []model.Kind
	glat  []int
	garea []int64
	area  int64

	// place is the order the list scheduler places operations in under
	// the current priorities; prevPlace holds the order before the last
	// swap, reinstated when the swap is undone.
	place     []dfg.OpID
	prevPlace []dfg.OpID

	// Scratch reused across evaluations and proposals.
	start   []int
	finish  []int
	indeg   []int
	ready   []uint64   // placeOrder: bit r set when the op of rank r is ready
	byRank  []dfg.OpID // placeOrder: the op of each rank
	mask    bitset.Set // group membership, for closure intersections
	cands   []int      // candidate group indices in proposals
	targets []int

	// Instance occupancy of the schedule being built: the start steps
	// of group g's placed members, ascending, fill
	// busy[busyOff[g]:busyEnd[g]]. Group g places len(groups[g]) of the
	// n operations, so one flat buffer of n holds every group's list.
	busy    []int
	busyOff []int
	busyEnd []int
}

// AllocateCtx runs the simulated-annealing allocator and returns the
// best feasible datapath found within the move budget.
func AllocateCtx(ctx context.Context, d *dfg.Graph, lib *model.Library, lambda int, opt Options) (*datapath.Datapath, Stats, error) {
	var stats Stats
	if err := d.Validate(); err != nil {
		return nil, stats, err
	}
	n := d.N()
	if n == 0 {
		return &datapath.Datapath{}, stats, nil
	}
	opt = opt.withDefaults()
	a, cur, err := newAllocator(d, lib, lambda)
	if err != nil {
		return nil, stats, err
	}
	stats.Evals++
	makespan := a.schedule(cur)
	if makespan > lambda {
		return nil, stats, fmt.Errorf("%w: λ=%d below λ_min=%d", ErrInfeasible, lambda, makespan)
	}

	best := cur.clone()
	bestArea := a.area
	bestStart := append([]int(nil), a.start...)
	bestKinds := append([]model.Kind(nil), a.kinds...)

	rnd := rand.New(rand.NewSource(opt.Seed))
	temp := opt.InitTemp
	if temp <= 0 {
		temp = float64(a.area) * 0.05
		if temp < 1 {
			temp = 1
		}
	}
	epochLen := 8 * n
	if epochLen < 64 {
		epochLen = 64
	}

	for moveNo := 0; moveNo < opt.Moves; moveNo++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		if moveNo > 0 && moveNo%epochLen == 0 {
			temp *= opt.Cooling
			stats.Epochs++
		}
		prevArea := a.area
		mv, ok := a.propose(rnd, cur)
		if !ok {
			continue // no applicable move of the drawn type; not counted
		}
		stats.Moves++

		// The area delta is known from the incremental group caches
		// before any scheduling. Worsening moves face the Metropolis
		// draw first: a temperature rejection costs no schedule at all.
		accept := true
		if delta := float64(a.area - prevArea); delta > 0 {
			accept = rnd.Float64() < math.Exp(-delta/temp)
		}
		// A growing group may be provably unable to meet λ; the bound
		// replaces a doomed schedule with a few bitset intersections.
		if accept {
			if gi := mv.grownGroup(); gi >= 0 && a.lbExceedsLambda(cur, gi) {
				accept = false
			}
		}
		if accept {
			stats.Evals++
			accept = a.schedule(cur) <= lambda
		}
		if !accept {
			a.undo(cur, mv)
			continue
		}
		stats.Accepted++
		if mv.kind == mvMerge {
			stats.Merges++
		}
		if a.area < bestArea {
			best = cur.clone()
			bestArea = a.area
			bestStart = append(bestStart[:0], a.start...)
			bestKinds = append(bestKinds[:0], a.kinds...)
			stats.Improved++
		}
	}

	dp := a.toDatapath(best, bestStart, bestKinds)
	if err := dp.Verify(d, lib, lambda); err != nil {
		return nil, stats, fmt.Errorf("anneal: internal error, produced illegal datapath: %w", err)
	}
	return dp, stats, nil
}

// newAllocator derives the static problem facts and the initial state:
// a dedicated minimal instance per operation, priorities in topological
// order. Its list schedule is ASAP at minimum latencies, so it is
// feasible exactly when λ ≥ λ_min.
func newAllocator(d *dfg.Graph, lib *model.Library, lambda int) (*allocator, *state, error) {
	n := d.N()
	order, err := d.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	reach, err := dfg.NewReach(d)
	if err != nil {
		return nil, nil, err
	}
	a := &allocator{
		d: d, lib: lib, lambda: lambda,
		class:     make([]model.OpType, n),
		sig:       make([]model.Signature, n),
		reach:     reach,
		minLat:    make([]int, n),
		head:      make([]int, n),
		tail:      make([]int, n),
		indeg0:    make([]int, n),
		start:     make([]int, n),
		finish:    make([]int, n),
		indeg:     make([]int, n),
		place:     make([]dfg.OpID, 0, n),
		prevPlace: make([]dfg.OpID, 0, n),
		ready:     make([]uint64, (n+63)/64),
		byRank:    make([]dfg.OpID, n),
		busy:      make([]int, n),
		mask:      bitset.New(n),
	}
	for _, o := range d.Ops() {
		a.class[o.ID] = o.Spec.Type.HardwareClass()
		a.sig[o.ID] = o.Spec.Sig
		a.minLat[o.ID] = lib.Latency(o.Spec.MinKind())
	}
	for i := 0; i < n; i++ {
		a.indeg0[i] = len(d.Pred(dfg.OpID(i)))
	}
	// Longest min-latency paths into each op's start and out of its
	// finish: the static head/tail terms of the merge lower bound.
	for _, o := range order {
		for _, p := range d.Pred(o) {
			if v := a.head[p] + a.minLat[p]; v > a.head[o] {
				a.head[o] = v
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		o := order[i]
		for _, s := range d.Succ(o) {
			if v := a.minLat[s] + a.tail[s]; v > a.tail[o] {
				a.tail[o] = v
			}
		}
	}

	cur := &state{
		groups:  make([][]dfg.OpID, n),
		groupOf: make([]int, n),
		prio:    make([]int, n),
	}
	a.kinds = make([]model.Kind, n)
	a.glat = make([]int, n)
	a.garea = make([]int64, n)
	for i := 0; i < n; i++ {
		cur.groups[i] = []dfg.OpID{dfg.OpID(i)}
		cur.groupOf[i] = i
		a.refreshGroup(cur, i)
	}
	for rank, id := range order {
		cur.prio[id] = rank
	}
	a.placeOrder(cur.prio)
	return a, cur, nil
}

// grownGroup returns the group a move enlarged (the lower-bound screen
// applies only to groups that gained members), or -1.
func (mv move) grownGroup() int {
	switch mv.kind {
	case mvRebind, mvMerge:
		return mv.dst
	}
	return -1
}

// groupKind returns the minimal kind covering every member of the group:
// the member class plus the element-wise join of the member signatures.
func (a *allocator) groupKind(ops []dfg.OpID) model.Kind {
	k := model.Kind{Class: a.class[ops[0]], Sig: a.sig[ops[0]]}
	for _, o := range ops[1:] {
		k.Sig = k.Sig.Join(a.sig[o])
	}
	return k
}

// refreshGroup recomputes one group's cached kind, latency and area from
// its current members and folds the difference into the total area.
func (a *allocator) refreshGroup(st *state, gi int) {
	a.area -= a.garea[gi]
	if len(st.groups[gi]) == 0 {
		a.kinds[gi] = model.Kind{}
		a.glat[gi] = 0
		a.garea[gi] = 0
		return
	}
	k := a.groupKind(st.groups[gi])
	a.kinds[gi] = k
	a.glat[gi] = a.lib.Latency(k)
	a.garea[gi] = a.lib.Area(k)
	a.area += a.garea[gi]
}

// saveGroup snapshots a group's cached facts into the undo record.
func (a *allocator) saveGroup(gi int) groupSave {
	return groupSave{kind: a.kinds[gi], lat: a.glat[gi], area: a.garea[gi]}
}

// restoreGroup reinstates a snapshot, repairing the total area.
func (a *allocator) restoreGroup(gi int, s groupSave) {
	a.area += s.area - a.garea[gi]
	a.kinds[gi] = s.kind
	a.glat[gi] = s.lat
	a.garea[gi] = s.area
}

// lbExceedsLambda reports whether group gi provably cannot fit any
// λ-feasible schedule: its members serialize on one instance of latency
// l, so every schedule spends |g|·l consecutive-or-better steps on it
// between the group's earliest min-latency head and its latest
// min-latency tail. Per member the bound sharpens through the
// precedence closure: an operation's in-group ancestors must all finish
// before it starts and its in-group descendants start after it
// finishes, each holding the instance for l steps. Latency is monotone
// under signature covering, so min-latency heads and tails
// under-approximate every grouping's true paths and the bound is sound:
// it only rejects states the scheduler would reject too.
func (a *allocator) lbExceedsLambda(st *state, gi int) bool {
	ops := st.groups[gi]
	k := len(ops)
	if k < 2 {
		return false
	}
	l := a.glat[gi]
	minHead, minTail := a.head[ops[0]], a.tail[ops[0]]
	for _, o := range ops[1:] {
		if a.head[o] < minHead {
			minHead = a.head[o]
		}
		if a.tail[o] < minTail {
			minTail = a.tail[o]
		}
	}
	if minHead+k*l+minTail > a.lambda {
		return true
	}
	a.mask.Clear()
	for _, o := range ops {
		a.mask.Add(int(o))
	}
	for _, o := range ops {
		after := a.reach.ToSet(o).IntersectCount(a.mask)
		before := a.reach.FromSet(o).IntersectCount(a.mask)
		if a.head[o]+(1+after)*l+minTail > a.lambda {
			return true
		}
		if minHead+(1+before)*l+a.tail[o] > a.lambda {
			return true
		}
	}
	return false
}

// placeOrder fills a.place with the order the list scheduler places
// operations in: an operation is ready once its predecessors are
// placed, and the ready one of lowest rank goes next. Ranks are a
// permutation, so the order depends only on the priorities and the DAG
// — not on the binding — and is recomputed only when a swap changes
// them. The ready set is a bitset over ranks, so the next operation is
// its lowest set bit.
func (a *allocator) placeOrder(prio []int) {
	for id, r := range prio {
		a.byRank[r] = dfg.OpID(id)
	}
	copy(a.indeg, a.indeg0)
	ready := a.ready
	low := len(ready) // no word below low has a bit set
	mark := func(r int) {
		ready[r>>6] |= 1 << (r & 63)
		low = min(low, r>>6)
	}
	for id, deg := range a.indeg {
		if deg == 0 {
			mark(prio[id])
		}
	}
	place := a.place[:0]
	for ; low < len(ready); low++ {
		for ready[low] != 0 {
			b := bits.TrailingZeros64(ready[low])
			ready[low] &^= 1 << b
			o := a.byRank[low<<6|b]
			place = append(place, o)
			for _, s := range a.d.Succ(o) {
				if a.indeg[s]--; a.indeg[s] == 0 {
					mark(prio[s])
				}
			}
		}
	}
	a.place = place
}

// schedule derives the current state's schedule with a binding-aware
// list scheduler: operations are placed in a.place's order, each at the
// earliest step that respects its predecessors' finish times and its
// instance's existing occupancy. Start times land in a.start; the
// return value is the makespan. All working storage is reused across
// calls.
func (a *allocator) schedule(st *state) int {
	for len(a.busyOff) < len(st.groups) {
		a.busyOff = append(a.busyOff, 0)
		a.busyEnd = append(a.busyEnd, 0)
	}
	off := 0
	for gi, g := range st.groups {
		a.busyOff[gi], a.busyEnd[gi] = off, off
		off += len(g)
	}
	makespan := 0
	for _, o := range a.place {
		g := st.groupOf[o]
		l := a.glat[g]
		t := 0
		for _, p := range a.d.Pred(o) {
			if a.finish[p] > t {
				t = a.finish[p]
			}
		}
		// Every slot of the group is l steps long, so slots sorted by
		// start are sorted by end too. When the last slot ends by t the
		// operation goes after it; otherwise the first slot ending after
		// t is found by binary search, and the earliest gap of length l
		// from t on lies past the run of slots that overlap the window.
		lo, end := a.busyOff[g], a.busyEnd[g]
		starts := a.busy[lo:end]
		i := len(starts)
		if i > 0 && starts[i-1]+l > t {
			i = 0
			for hi := len(starts) - 1; i < hi; {
				if mid := int(uint(i+hi) >> 1); starts[mid]+l <= t {
					i = mid + 1
				} else {
					hi = mid
				}
			}
			for ; i < len(starts) && starts[i] < t+l; i++ {
				t = starts[i] + l
			}
			copy(a.busy[lo+i+1:end+1], starts[i:])
		}
		a.busy[lo+i] = t
		a.busyEnd[g] = end + 1
		a.start[o] = t
		a.finish[o] = t + l
		if t+l > makespan {
			makespan = t + l
		}
	}
	return makespan
}

// propose draws one move, applies it to cur in place, and returns its
// undo record. ok is false when the drawn move type has no applicable
// candidates in this state (cur is untouched).
func (a *allocator) propose(rnd *rand.Rand, cur *state) (move, bool) {
	switch roll := rnd.Float64(); {
	case roll < 0.35:
		return a.proposeRebind(rnd, cur)
	case roll < 0.60:
		return a.proposeMerge(rnd, cur)
	case roll < 0.80:
		return a.proposeSplit(rnd, cur)
	default:
		return a.proposeSwap(rnd, cur)
	}
}

// undo reverts a move, restoring both the partition and the cached
// group costs. Membership order inside a group may differ from before
// the move; every cost and scheduling quantity is order-independent.
func (a *allocator) undo(st *state, mv move) {
	switch mv.kind {
	case mvRebind, mvSplit:
		moveOp(st, mv.o, mv.src)
		a.restoreGroup(mv.src, mv.saved[0])
		a.restoreGroup(mv.dst, mv.saved[1])
	case mvMerge:
		st.groups[mv.dst] = st.groups[mv.dst][:mv.dstLen]
		st.groups[mv.src] = mv.srcOps
		for _, o := range mv.srcOps {
			st.groupOf[o] = mv.src
		}
		a.restoreGroup(mv.src, mv.saved[0])
		a.restoreGroup(mv.dst, mv.saved[1])
	case mvSwap:
		st.prio[mv.i], st.prio[mv.j] = st.prio[mv.j], st.prio[mv.i]
		a.place, a.prevPlace = a.prevPlace, a.place
	}
}

// proposeRebind moves one operation onto another existing instance of
// its hardware class.
func (a *allocator) proposeRebind(rnd *rand.Rand, cur *state) (move, bool) {
	n := len(cur.groupOf)
	o := dfg.OpID(rnd.Intn(n))
	targets := a.targets[:0]
	for gi, g := range cur.groups {
		if gi != cur.groupOf[o] && len(g) > 0 && a.class[g[0]] == a.class[o] {
			targets = append(targets, gi)
		}
	}
	a.targets = targets
	if len(targets) == 0 {
		return move{}, false
	}
	dst := targets[rnd.Intn(len(targets))]
	mv := move{kind: mvRebind, o: o, src: cur.groupOf[o], dst: dst}
	mv.saved[0] = a.saveGroup(mv.src)
	mv.saved[1] = a.saveGroup(dst)
	moveOp(cur, o, dst)
	a.refreshGroup(cur, mv.src)
	a.refreshGroup(cur, dst)
	return mv, true
}

// proposeMerge fuses two instances of one hardware class.
func (a *allocator) proposeMerge(rnd *rand.Rand, cur *state) (move, bool) {
	live := a.cands[:0]
	for gi, g := range cur.groups {
		if len(g) > 0 {
			live = append(live, gi)
		}
	}
	a.cands = live
	if len(live) < 2 {
		return move{}, false
	}
	src := live[rnd.Intn(len(live))]
	targets := a.targets[:0]
	for _, gi := range live {
		if gi != src && a.class[cur.groups[gi][0]] == a.class[cur.groups[src][0]] {
			targets = append(targets, gi)
		}
	}
	a.targets = targets
	if len(targets) == 0 {
		return move{}, false
	}
	dst := targets[rnd.Intn(len(targets))]
	mv := move{kind: mvMerge, src: src, dst: dst, srcOps: cur.groups[src], dstLen: len(cur.groups[dst])}
	mv.saved[0] = a.saveGroup(src)
	mv.saved[1] = a.saveGroup(dst)
	for _, o := range cur.groups[src] {
		cur.groupOf[o] = dst
	}
	cur.groups[dst] = append(cur.groups[dst], cur.groups[src]...)
	cur.groups[src] = nil
	a.refreshGroup(cur, src)
	a.refreshGroup(cur, dst)
	return mv, true
}

// proposeSplit evicts one operation from a shared instance onto a fresh
// minimal one.
func (a *allocator) proposeSplit(rnd *rand.Rand, cur *state) (move, bool) {
	shared := a.cands[:0]
	for gi, g := range cur.groups {
		if len(g) >= 2 {
			shared = append(shared, gi)
		}
	}
	a.cands = shared
	if len(shared) == 0 {
		return move{}, false
	}
	gi := shared[rnd.Intn(len(shared))]
	o := cur.groups[gi][rnd.Intn(len(cur.groups[gi]))]
	dst := a.freeSlot(cur)
	mv := move{kind: mvSplit, o: o, src: gi, dst: dst}
	mv.saved[0] = a.saveGroup(gi)
	mv.saved[1] = a.saveGroup(dst)
	moveOp(cur, o, dst)
	a.refreshGroup(cur, gi)
	a.refreshGroup(cur, dst)
	return mv, true
}

// proposeSwap exchanges two operations' scheduling priorities.
func (a *allocator) proposeSwap(rnd *rand.Rand, cur *state) (move, bool) {
	n := len(cur.prio)
	if n < 2 {
		return move{}, false
	}
	i := rnd.Intn(n)
	j := rnd.Intn(n - 1)
	if j >= i {
		j++
	}
	cur.prio[i], cur.prio[j] = cur.prio[j], cur.prio[i]
	a.place, a.prevPlace = a.prevPlace, a.place
	a.placeOrder(cur.prio)
	return move{kind: mvSwap, i: i, j: j}, true
}

// moveOp reassigns one operation to group dst, removing it from its
// current group (which may become a dead slot).
func moveOp(st *state, o dfg.OpID, dst int) {
	src := st.groupOf[o]
	g := st.groups[src]
	for i, m := range g {
		if m == o {
			st.groups[src] = append(g[:i], g[i+1:]...)
			break
		}
	}
	if len(st.groups[src]) == 0 {
		st.groups[src] = nil
	}
	st.groups[dst] = append(st.groups[dst], o)
	st.groupOf[o] = dst
}

// freeSlot returns the index of an empty group slot, growing the group
// slice and the allocator's parallel cache arrays when none is free.
func (a *allocator) freeSlot(st *state) int {
	for gi, g := range st.groups {
		if len(g) == 0 {
			return gi
		}
	}
	st.groups = append(st.groups, nil)
	a.kinds = append(a.kinds, model.Kind{})
	a.glat = append(a.glat, 0)
	a.garea = append(a.garea, 0)
	return len(st.groups) - 1
}

// toDatapath converts the best state into the common result
// representation, dropping dead group slots.
func (a *allocator) toDatapath(st *state, start []int, kinds []model.Kind) *datapath.Datapath {
	dp := &datapath.Datapath{
		Start:  append([]int(nil), start...),
		InstOf: make([]int, len(st.groupOf)),
	}
	for gi, g := range st.groups {
		if len(g) == 0 {
			continue
		}
		idx := len(dp.Instances)
		dp.Instances = append(dp.Instances, datapath.Instance{
			Kind: kinds[gi],
			Ops:  append([]dfg.OpID(nil), g...),
		})
		for _, o := range g {
			dp.InstOf[o] = idx
		}
	}
	return dp
}
