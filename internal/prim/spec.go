// Package prim implements GPU collective primitives: the send / recv /
// reduce / copy actions of Sec. 4.1 of the paper, the Ring-algorithm
// primitive-sequence generators for the seven supported collectives
// (all-reduce, all-gather, reduce-scatter, reduce, broadcast, the
// store-and-forward all-to-all of MoE expert parallelism, and its
// variable-count all-to-all-v for skew-sized dispatch), and a
// resumable executor whose dynamic state (current chunk round and
// primitive step) is exactly the "dynamic context" DFCCL saves and
// restores across preemptions.
//
// Primitives move real bytes through mem.Connector ring buffers, so the
// collectives are functionally correct, and charge virtual time for
// serialization, latency, and reduction compute, so they are also
// performance models.
package prim

import (
	"fmt"
	"math"
	"slices"

	"dfccl/internal/mem"
)

// Kind enumerates the supported collectives.
type Kind int

const (
	// AllReduce: every rank contributes Count elements and receives
	// their elementwise reduction.
	AllReduce Kind = iota
	// AllGather: every rank contributes Count elements and receives
	// the Count×N concatenation.
	AllGather
	// ReduceScatter: every rank contributes Count elements and
	// receives its Count/N share of the reduction.
	ReduceScatter
	// Reduce: like AllReduce, but only the root receives the result.
	Reduce
	// Broadcast: the root's Count elements reach every rank.
	Broadcast
	// AllToAll: every rank sends a distinct Count-element block to
	// each peer and receives one from each — the MoE dispatch/combine
	// exchange.
	AllToAll
	// AllToAllv: the variable-count all-to-all. Block sizes come from
	// the Spec's Counts matrix instead of a uniform Count, so skewed
	// exchanges (MoE routing under a hot expert) move exactly the
	// routed elements with no capacity padding.
	AllToAllv
)

// Algorithm selects the primitive-sequence algorithm a collective's
// executors run. The zero value (AlgoRing) is the flat ring the paper
// evaluates for every collective; AlgoHierarchical is the topology-
// aware two-tier schedule available for the all-to-all variants,
// all-reduce, all-gather, and reduce-scatter; AlgoAuto defers the
// choice to the runtime's tuning table.
type Algorithm int

const (
	// AlgoRing is the flat ring: every block travels position-to-
	// position around the one ring, store-and-forward for the
	// all-to-all variants — topology-blind, so on multi-node clusters
	// cross-node hops and even intra-node wrap-around blocks pay RDMA.
	AlgoRing Algorithm = iota
	// AlgoHierarchical is the two-tier schedule: intra-node traffic
	// moves directly over SHM-speed connectors (a full mesh within
	// each node), cross-node traffic is funnelled through one leader
	// per node and carried between leaders by a ring over RDMA — never
	// more inter-node bytes than the flat ring, strictly fewer
	// whenever a node holds more than one rank. Supported for the
	// all-to-all variants (PR 4), all-reduce (intra reduce-scatter →
	// inter-leader ring all-reduce → broadcast), all-gather, and
	// reduce-scatter; Reduce and Broadcast remain ring/chain-only.
	AlgoHierarchical
	// AlgoAuto resolves to a concrete algorithm (ring or hierarchical)
	// at Open time from the runtime's tuning table, keyed by
	// (kind, payload size, node shape). Valid on every kind — kinds
	// without a hierarchical variant always resolve to the ring. An
	// unresolved AlgoAuto never reaches a sequence builder.
	AlgoAuto
)

// String names the algorithm ("ring", "hierarchical", "auto").
func (a Algorithm) String() string {
	switch a {
	case AlgoRing:
		return "ring"
	case AlgoHierarchical:
		return "hierarchical"
	case AlgoAuto:
		return "auto"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// String returns the NCCL-style lowercase name of the collective.
func (k Kind) String() string {
	switch k {
	case AllReduce:
		return "all-reduce"
	case AllGather:
		return "all-gather"
	case ReduceScatter:
		return "reduce-scatter"
	case Reduce:
		return "reduce"
	case Broadcast:
		return "broadcast"
	case AllToAll:
		return "all-to-all"
	case AllToAllv:
		return "all-to-all-v"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// InPlace reports whether a run of the kind may be given one buffer as
// both its send and its recv buffer. The all-to-all variants may not:
// they land final blocks in the recv buffer while own blocks still wait
// in the send buffer to be sent.
func (k Kind) InPlace() bool { return k != AllToAll && k != AllToAllv }

// DefaultChunkElems is the Simple-protocol chunk granularity in elements
// (128 KiB of float32, matching NCCL's default slice sizing closely
// enough for curve shapes).
const DefaultChunkElems = 32768

// Spec describes one collective operation on a set of ranks.
//
// Count semantics follow NCCL: for AllReduce, Reduce, and Broadcast it
// is the total element count of the buffer; for AllGather it is the
// per-rank contribution (recv buffer holds Count×N); for ReduceScatter
// it is the total send-buffer count (recv buffer holds Count/N); for
// AllToAll it is the per-peer block size (send and recv buffers both
// hold Count×N: send block j goes to rank j, recv block i came from
// rank i, both indexed by ring position within Ranks). AllToAllv
// ignores Count (it must be zero) and takes per-peer block sizes from
// Counts instead.
type Spec struct {
	// Kind selects the collective algorithm.
	Kind Kind
	// Count is the element count, with per-kind semantics (see above).
	Count int
	// Type is the element type of both buffers.
	Type mem.DataType
	// Op is the reduction operator for the reducing kinds.
	Op mem.ReduceOp
	// Root is the index *within Ranks* of the root for Reduce/Broadcast.
	Root int
	// Ranks lists the participating global ranks; ring order follows
	// slice order.
	Ranks []int
	// ChunkElems is the chunk granularity; zero selects the default.
	ChunkElems int
	// Counts is the AllToAllv count matrix: Counts[i][j] is the element
	// count ring position i sends to ring position j (the diagonal
	// entry i==j is the local self block). Validate enforces the count-
	// vector sum rule: the matrix must be N()×N() with non-negative
	// entries, and must be nil for every other Kind. Because all ranks
	// register the one shared matrix, the cross-rank agreement NCCL
	// leaves to the application — rank i's sendcounts[j] equal to rank
	// j's recvcounts[i] — holds by construction: position i's send
	// counts are row i and its recv counts are column i, so row and
	// column sums are consistent across ranks by definition. Per-rank
	// buffer sizes follow from the same sums via BufferCountsFor. Open
	// keeps the caller's matrix, not a copy, so it must not be mutated
	// while the collective is open.
	Counts [][]int
	// TimingOnly runs the collective as a pure performance model: all
	// scheduling, connector flow control, and time charging behave
	// identically, but no bytes are allocated, moved, or reduced.
	// Training-scale simulations use it to avoid copying gigabytes of
	// gradient data per simulated iteration.
	TimingOnly bool
	// Algo selects the primitive-sequence algorithm. The zero value is
	// the flat ring; AlgoHierarchical (all-to-all variants, all-reduce,
	// all-gather, reduce-scatter) tiers the exchange by node topology;
	// AlgoAuto is resolved to one of the two from the tuning table at
	// Open time, before the spec is registered. Two
	// registrations of the same collective ID must agree on it —
	// Same treats the algorithm as part of the collective's identity,
	// because ring and hierarchical executors use incompatible wiring.
	Algo Algorithm
}

// Timing returns a copy of the spec with TimingOnly set: the
// collective behaves identically for scheduling and time charging but
// moves no bytes. Builder-style helper for performance experiments.
func (s Spec) Timing() Spec {
	s.TimingOnly = true
	return s
}

// Same reports whether two specs are interchangeable for registration
// and collective-ID assignment: every field is equal, including the
// algorithm and the AllToAllv count matrix (two variable-count
// collectives with different routing must not share a registration).
// It allocates nothing.
func (s Spec) Same(o Spec) bool {
	return s.Kind == o.Kind && s.Algo == o.Algo && s.Count == o.Count && s.Type == o.Type && s.Op == o.Op &&
		s.Root == o.Root && s.ChunkElems == o.ChunkElems && s.TimingOnly == o.TimingOnly &&
		slices.Equal(s.Ranks, o.Ranks) && slices.EqualFunc(s.Counts, o.Counts, slices.Equal[[]int])
}

func (s Spec) chunk() int {
	if s.ChunkElems > 0 {
		return s.ChunkElems
	}
	return DefaultChunkElems
}

// N returns the number of participants.
func (s Spec) N() int { return len(s.Ranks) }

// Validate checks structural invariants.
func (s Spec) Validate() error {
	if len(s.Ranks) == 0 {
		return fmt.Errorf("prim: spec has no ranks")
	}
	if s.Kind < AllReduce || s.Kind > AllToAllv {
		return fmt.Errorf("prim: unknown kind %v", s.Kind)
	}
	if s.Type < mem.Float32 || s.Type > mem.Int64 {
		return fmt.Errorf("prim: unknown data type %v", s.Type)
	}
	switch s.Kind {
	case AllReduce, ReduceScatter, Reduce:
		if s.Op < mem.Sum || s.Op > mem.Min {
			return fmt.Errorf("prim: unknown reduction op %v", s.Op)
		}
	}
	switch s.Algo {
	case AlgoRing, AlgoAuto:
		// The ring serves every kind; auto resolves to a supported
		// algorithm before any sequence is built.
	case AlgoHierarchical:
		switch s.Kind {
		case AllToAll, AllToAllv, AllReduce, AllGather, ReduceScatter:
		default:
			return fmt.Errorf("prim: algorithm %v does not support kind %v", s.Algo, s.Kind)
		}
	default:
		return fmt.Errorf("prim: unknown algorithm %v", s.Algo)
	}
	if s.Count < 0 {
		return fmt.Errorf("prim: negative count %d", s.Count)
	}
	if s.Kind == ReduceScatter && s.Count%len(s.Ranks) != 0 {
		// Every rank receives Count/N elements; a remainder has nowhere to go.
		return fmt.Errorf("prim: reduce-scatter count %d is not a multiple of %d ranks", s.Count, len(s.Ranks))
	}
	if s.Root < 0 || s.Root >= len(s.Ranks) {
		if s.Kind == Reduce || s.Kind == Broadcast {
			return fmt.Errorf("prim: root %d out of range for %d ranks", s.Root, len(s.Ranks))
		}
	}
	// The first rank that repeats an earlier one, found in place: a
	// registration validates its spec on every Open.
	for i, r := range s.Ranks {
		if slices.Contains(s.Ranks[:i], r) {
			return fmt.Errorf("prim: duplicate rank %d", r)
		}
	}
	// Count-vector sum rules: AllToAllv carries a full N×N matrix (so
	// every rank's send counts are a row and its recv counts a column
	// of the same shared matrix), every other kind carries none.
	if s.Kind == AllToAllv {
		if s.Count != 0 {
			return fmt.Errorf("prim: all-to-all-v uses Counts, not Count (got Count=%d)", s.Count)
		}
		if len(s.Counts) != len(s.Ranks) {
			return fmt.Errorf("prim: all-to-all-v Counts has %d rows, want %d", len(s.Counts), len(s.Ranks))
		}
		for i, row := range s.Counts {
			if len(row) != len(s.Ranks) {
				return fmt.Errorf("prim: all-to-all-v Counts row %d has %d entries, want %d", i, len(row), len(s.Ranks))
			}
			for j, c := range row {
				if c < 0 {
					return fmt.Errorf("prim: all-to-all-v Counts[%d][%d] = %d is negative", i, j, c)
				}
			}
		}
	} else if s.Counts != nil {
		return fmt.Errorf("prim: Counts matrix is only valid for all-to-all-v (kind %v)", s.Kind)
	}
	return nil
}

// count is the element count of the all-to-all block ring position i
// sends to position j: the uniform Count of AllToAll, Counts[i][j] of
// AllToAllv.
func (s Spec) count(i, j int) int {
	if s.Kind == AllToAll {
		return s.Count
	}
	return s.Counts[i][j]
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// Action is one primitive: a fused subset of {send, recv, reduce, copy}.
// SendSeg / RecvSeg name the plan segment the action touches;
// -1 means the action has no send (or recv) half. When Reduce is false a
// received chunk overwrites the segment slice (copy); when true it is
// reduced into it.
type Action struct {
	// SendSeg is the segment the send half reads (-1 = none).
	SendSeg int
	// RecvSeg is the segment the recv half writes (-1 = none).
	RecvSeg int
	// Reduce selects reduce-into (true) vs copy-over (false) for the recv half.
	Reduce bool
	// SendElems / RecvElems bound the element count the action's halves
	// move, counted from the segment start; every action carries them.
	// They matter where a segment is longer than the block it carries —
	// an all-to-all transit slot is sized to the largest in-flight block
	// — and for zero-length blocks of zero-count peers, which still
	// exchange (empty) chunks so the uniform ring schedule keeps its
	// flow-control token per step.
	SendElems, RecvElems int
	// SendConn / RecvConn select which of the executor's send (recv)
	// endpoints the action's halves use. Ring sequences have exactly one
	// endpoint each (the ring successor / predecessor), so flat actions
	// use 0; hierarchical sequences index the intra-node mesh and
	// leader-ring endpoints.
	SendConn, RecvConn int
	// LocalCopy marks a connector-free action: copy SendElems elements
	// from the start of segment SendSeg to the start of segment RecvSeg
	// (the hierarchical leader packing its own cross-node blocks from the
	// send buffer into the aggregate staging area). LocalCopy
	// actions charge compute time, never touch a connector, and can
	// therefore never be Stuck.
	LocalCopy bool
}

// HasSend reports whether the action writes to the send connector.
func (a Action) HasSend() bool { return a.SendSeg >= 0 }

// HasRecv reports whether the action reads from the recv connector.
func (a Action) HasRecv() bool { return a.RecvSeg >= 0 }

// String renders the action in the paper's primitive vocabulary
// (send / recvCopy / recvReduce and their fused forms).
func (a Action) String() string {
	switch {
	case a.LocalCopy:
		return fmt.Sprintf("localCopy(seg %d->%d)", a.SendSeg, a.RecvSeg)
	case a.HasRecv() && a.HasSend() && a.Reduce:
		return fmt.Sprintf("recvReduceSend(seg %d->%d)", a.RecvSeg, a.SendSeg)
	case a.HasRecv() && a.HasSend():
		return fmt.Sprintf("recvCopySend(seg %d->%d)", a.RecvSeg, a.SendSeg)
	case a.HasRecv() && a.Reduce:
		return fmt.Sprintf("recvReduce(seg %d)", a.RecvSeg)
	case a.HasRecv():
		return fmt.Sprintf("recvCopy(seg %d)", a.RecvSeg)
	case a.HasSend():
		return fmt.Sprintf("send(seg %d)", a.SendSeg)
	default:
		return "nop"
	}
}

// home names the buffer a segment lives in (Sequence.home).
type home uint8

const (
	// inRecv is the user's recv buffer.
	inRecv home = iota
	// inSend is the user's send buffer, which no action writes.
	inSend
	// inScratch is the executor's scratch buffer.
	inScratch
)

// segRange is an element range [Lo, Hi) within the buffer its segment
// lives in.
type segRange struct{ Lo, Hi int }

func (r segRange) len() int { return r.Hi - r.Lo }

// initCopyOwnSeg sentinels (non-negative values name the working-buffer
// segment that receives the rank's own send-buffer contribution).
const (
	// initCopyWhole copies the whole send buffer into the working
	// buffer; their element lengths must match.
	initCopyWhole = -1
	// initCopyNone performs no init copy.
	initCopyNone = -2
	// initCopyPrefix copies the whole send buffer into the leading
	// elements of a (longer) working buffer — the hierarchical
	// reduce-scatter leader's, which also stages a permuted copy.
	initCopyPrefix = -3
	// initCopyInPlace moves nothing: the plan's own blocks are segments
	// of the send buffer (the all-to-all's). It is still priced at the
	// whole send buffer, which the run reads by the end.
	initCopyInPlace = -4
	// initCopyOwn copies into the position's own block (ownSeg).
	initCopyOwn = -5
)

// Stage is one phase of a plan: its Len actions run Rounds times (one
// chunk round per pass) before the next stage starts. A flat ring plan
// is one unlabelled stage; the hierarchical builders make one per
// intra-node exchange offset, pack, convoy and leader-ring schedule. No
// stage lists its actions: it computes them from the reading position.
type Stage struct {
	// Label names the phase for diagnostics and preemption tests
	// ("intra", "pack", "gather", "inter-ring", "scatter"; "" on the
	// flat ring).
	Label string
	// Rounds is how many times the actions run (one chunk each).
	Rounds int
	// ring generates a ring stage's actions (ring.n > 0), hop a node's
	// other stages'; the single participant's stage has neither.
	ring ring
	hop  *hop
}

// Len returns the stage's action count per round: the leader's in a
// plan, member k's in the copies Sequence.Stages gives member k.
func (st *Stage) Len() int {
	if st.hop != nil {
		return st.count(st.hop.member)
	}
	return st.count(0)
}

// count returns the stage's action count per round at member k.
func (st *Stage) count(k int) int {
	switch {
	case st.ring.n > 0:
		return st.ring.len()
	case st.hop == nil:
		return 0
	}
	return st.hop.count(k)
}

// Action returns the stage's action k, 0 ≤ k < Len(), as the participant
// at position pos runs it.
func (st *Stage) Action(pos, k int) Action {
	var a Action
	st.action(pos, k, &a)
	return a
}

// action sets *a to Action(pos, k), building it in place: the executor
// computes one per primitive.
func (st *Stage) action(pos, k int, a *Action) {
	if st.ring.n > 0 {
		st.ring.action(st.ring.at(pos), k, a)
	} else {
		st.hop.action(pos, k, a)
	}
}

// Sequence is the execution plan of one collective: its stages, the
// segment layout over the send, recv and scratch buffers, and the init
// and copy-out moves around them. It is built once, never written again,
// and read by every participant at its own position; the executor's
// dynamic context is a cursor over the stages of its position.
//
// A plan is one part per node (a flat plan one part), read by role: the
// leader, as every flat position, runs all its stages, a member those
// hop.has gives it, each role with a table of its own. What differs within a
// role is computed from the position: the actions (Stage.Action), the
// init copy (ownSeg), the working buffer (work), the copy-out (out), and
// the all-to-all-v's segments and working length (countedSeg, workLen).
type Sequence struct {
	// kind, algo, n, count, root and chunkElems are the shape the plan was
	// built for (serves), and counts an all-to-all-v's Counts, row-major,
	// the plan's own copy.
	kind           Kind
	algo           Algorithm
	n, count, root int
	chunkElems     int
	counts         []int
	// hier is what only a hierarchical plan has (nil on a flat one).
	hier *hierPlan
	// seeded: each segment's own contribution is its seed, a range of the
	// send buffer, which a reduce into the segment reads straight from
	// the send buffer as it folds the chunk in; the init copy copies only
	// the own segment's seed. The recv buffer then never holds the whole
	// send vector, which the reduce-scatter's is too short for.
	seeded bool
	// transit is a flat all-to-all-v's transit slot length at each
	// position.
	transit []int
	// parts are the parts by node; a flat plan's is flat, with stage.
	parts []part
	flat  [1]part
	stage [1]Stage
}

// part is one node's share of a plan: its leader's stages and the
// leader's table (its members' is hierPlan.memb).
type part struct {
	Stages []Stage
	lead   role
}

// hierPlan is the part of a hierarchical plan a flat one has no use for:
// the node grouping (the wiring's, which no one writes once it is made)
// and, by node, the table the node's members share.
type hierPlan struct {
	g    NodeGrouping
	memb []role
}

// role is the segment table of one role of a part.
type role struct {
	// segs are the segments (none: the all-to-all-v's, countedSeg).
	segs []segRange
	// blk maps blocks onto segments for the hops, ownSeg and out.
	blk []int
	// workLen is the element length of the working buffer.
	workLen int
	// initCopyOwnSeg: at init, copy the send buffer (only seed(seg) of
	// it, in a seeded plan) into segs[seg] of the working buffer, or one
	// of the initCopy* sentinels (ownSeg).
	initCopyOwnSeg int
	// work is the working buffer: the recv buffer, or a scratch of
	// workLen elements the executor owns (work).
	work home
	// ownOut: the copy-out is computed (out), not copyOut.
	ownOut bool
	// inPlace: segments [0, inPlace) are blocks of the send buffer and
	// [inPlace, 2·inPlace) blocks of the recv buffer, each buffer tiled
	// in order (the all-to-all's own and final blocks); every other
	// segment lies in the working buffer.
	inPlace int
	// copyOut: after the final round, concatenate the listed segments
	// into the recv buffer in list order (none: the working buffer is
	// the recv buffer). A segment already at its place in the recv
	// buffer moves nothing, but the copy-out is priced whole.
	copyOut []int
}

// read returns position pos's part, its role's table and its member
// index k (0: the leader, as every position of a flat plan is).
func (q *Sequence) read(pos int) (p *part, r *role, k int) {
	p = &q.parts[0]
	if h := q.hier; h != nil {
		a := h.g.NodeOf[pos]
		if p, k = &q.parts[a], h.g.local[pos]; k > 0 {
			return p, &h.memb[a], k
		}
	}
	return p, &p.lead, 0
}

// stage returns the i-th stage member k runs, nil past its last.
func (p *part) stage(k, i int) *Stage {
	if k == 0 { // the leader runs them all
		if i < len(p.Stages) {
			return &p.Stages[i]
		}
		return nil
	}
	for j := range p.Stages {
		if st := &p.Stages[j]; st.hop.has(k) {
			if i == 0 {
				return st
			}
			i--
		}
	}
	return nil
}

// Stages returns the stages position pos runs, in execution order (a
// member's are copies that count its actions).
func (q *Sequence) Stages(pos int) []Stage {
	p, _, k := q.read(pos)
	if k == 0 {
		return p.Stages
	}
	var stages []Stage
	for _, st := range p.Stages {
		if st.hop.has(k) {
			h := *st.hop
			h.member, st.hop = k, &h
			stages = append(stages, st)
		}
	}
	return stages
}

// NumPrimitives returns position pos's total primitive count across all
// stages and rounds — the quantity the paper's preemption analysis
// counts. Every stage runs at least once, so 0 means a pure init copy
// and copy-out (the single-rank no-op).
func (q *Sequence) NumPrimitives(pos int) int {
	total := 0
	for _, st := range q.Stages(pos) {
		total += st.Len() * st.Rounds
	}
	return total
}

// NumStages returns position pos's stage count: 1 for flat ring plans,
// the phase count for hierarchical ones.
func (q *Sequence) NumStages(pos int) int { return len(q.Stages(pos)) }

// TotalRounds returns the summed round count across position pos's
// stages — the number of chunk-round passes its executor makes end to
// end.
func (q *Sequence) TotalRounds(pos int) int {
	total := 0
	for _, st := range q.Stages(pos) {
		total += st.Rounds
	}
	return total
}

// ownSeg returns position pos's init copy: the working-buffer segment its
// send buffer (its seed, in a seeded plan) goes to, or an initCopy*
// sentinel. Its own block is block pos (pos-1 on the flat
// reduce-scatter, the block step 0 sends), and only a broadcast's root
// copies.
func (q *Sequence) ownSeg(pos int) int {
	_, r, _ := q.read(pos)
	switch {
	case q.kind == Broadcast && pos != q.root:
		return initCopyNone
	case r.initCopyOwnSeg != initCopyOwn:
		return r.initCopyOwnSeg
	case q.kind == ReduceScatter:
		return mod(pos-1, q.n)
	}
	return blockSeg(r.blk, pos)
}

// work returns position pos's working buffer; a Reduce's non-roots
// reduce in a scratch, the root in its recv buffer.
func (q *Sequence) work(pos int) home {
	if q.kind == Reduce && pos != q.root {
		return inScratch
	}
	_, r, _ := q.read(pos)
	return r.work
}

// outs returns the segment count of position pos's copy-out: the
// reduce-scatter's one, the all-to-all's n, or the listed ones.
func (q *Sequence) outs(pos int) int {
	switch _, r, _ := q.read(pos); {
	case !r.ownOut:
		return len(r.copyOut)
	case q.kind == ReduceScatter:
		return 1
	}
	return q.n
}

// out returns segment i of position pos's copy-out. The reduce-scatter's
// one segment is block pos, and the all-to-all concatenates the final
// blocks by origin, but for the self block, which comes from the send
// buffer.
func (q *Sequence) out(pos, i int) int {
	switch _, r, _ := q.read(pos); {
	case !r.ownOut:
		return r.copyOut[i]
	case q.kind == ReduceScatter:
		return blockSeg(r.blk, pos)
	case i == pos:
		return pos
	}
	return q.n + i
}

// seg returns segment i of position pos, which reads table r.
func (q *Sequence) seg(r *role, pos, i int) segRange {
	if r.segs == nil {
		return q.countedSeg(pos, i)
	}
	return r.segs[i]
}

// countedSeg is segment i of position pos of an all-to-all-v whose role
// lists none: its own blocks tile row pos of counts, its final blocks
// column pos, and a flat plan's two transit slots follow.
func (q *Sequence) countedSeg(pos, i int) segRange {
	n, lo := q.n, 0
	switch {
	case i < n:
		for j := range i {
			lo += q.counts[pos*n+j]
		}
		return segRange{Lo: lo, Hi: lo + q.counts[pos*n+i]}
	case i < 2*n:
		for o := range i - n {
			lo += q.counts[o*n+pos]
		}
		return segRange{Lo: lo, Hi: lo + q.counts[(i-n)*n+pos]}
	}
	t := q.transit[pos]
	return segRange{Lo: (i - 2*n) * t, Hi: (i - 2*n + 1) * t}
}

// workLen returns the element length of position pos's working buffer.
func (q *Sequence) workLen(pos int) int {
	if q.transit == nil {
		_, r, _ := q.read(pos)
		return r.workLen
	}
	return 2 * q.transit[pos]
}

// seed is segment b's own contribution in a seeded plan, a flat one,
// the same at every position: the send buffer holds every segment's, in
// segment order, so the seeds tile it.
func (q *Sequence) seed(pos, b int) segRange {
	segs, lo := q.parts[0].lead.segs, 0
	for _, sr := range segs[:b] {
		lo += sr.len()
	}
	return segRange{Lo: lo, Hi: lo + segs[b].len()}
}

// serves reports whether the plan is s's over the node grouping g: s
// has the shape it was built for, and g its grouping (none, on the flat
// ring). A plan depends on the ranks only through their count and
// grouping, and not on the element type, the reduction or TimingOnly.
func (q *Sequence) serves(s Spec, g NodeGrouping) bool {
	return q.kind == s.Kind && q.algo == s.Algo && q.n == s.N() && q.count == s.Count && q.root == s.Root &&
		q.chunkElems == s.chunk() && q.sameCounts(s.Counts) && slices.Equal(q.nodeOf(), g.NodeOf)
}

// nodeOf is the node of each position under the plan's grouping (none,
// on a flat plan).
func (q *Sequence) nodeOf() []int {
	if q.hier == nil {
		return nil
	}
	return q.hier.g.NodeOf
}

// sameCounts reports whether m is the plan's count matrix.
func (q *Sequence) sameCounts(m [][]int) bool {
	if len(q.counts) != len(m)*len(m) {
		return false
	}
	for i, row := range m {
		if !slices.Equal(row, q.counts[i*len(m):(i+1)*len(m)]) {
			return false
		}
	}
	return true
}

// evenSeg is segment i of count elements split into n contiguous
// near-equal segments, the longer ones first.
func evenSeg(count, n, i int) segRange {
	base, rem := count/n, count%n
	lo := i*base + min(i, rem)
	if i < rem {
		return segRange{Lo: lo, Hi: lo + base + 1}
	}
	return segRange{Lo: lo, Hi: lo + base}
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		panic("prim: ceilDiv by non-positive")
	}
	if a <= 0 {
		return 1 // at least one round, even for empty payloads
	}
	return (a + b - 1) / b
}

// mod is a mod n, in [0, n). Ring arithmetic stays within a turn of
// that range, where it takes compares instead of two divisions: every
// primitive computes its action with it.
func mod(a, n int) int {
	switch {
	case a >= n:
		a -= n
	case a < 0:
		a += n
	}
	if a < 0 || a >= n {
		return ((a % n) + n) % n
	}
	return a
}

// SequenceFor returns the flat-ring plan of s's collective, which the
// participant at position pos reads at its own, as every participant
// does, using the Ring algorithm and Simple protocol (the configuration
// the paper evaluates). Hierarchical specs
// need the cluster's node grouping and different wiring: build their
// executors with a Wirings, which builds their wiring and plans.
func (s Spec) SequenceFor(pos int) *Sequence {
	return s.build(NodeGrouping{}).has(pos)
}

// has panics unless pos is a position of the plan, and returns the plan.
func (q *Sequence) has(pos int) *Sequence {
	if pos < 0 || pos >= q.n {
		panic(fmt.Sprintf("prim: position %d out of range (n=%d)", pos, q.n))
	}
	return q
}

// build builds s's plan: the flat ring's, or, given the node grouping of
// a hierarchical wiring, the hierarchical one.
func (s Spec) build(g NodeGrouping) *Sequence {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	hier := g.Nodes() > 0
	switch {
	case hier && s.Algo != AlgoHierarchical:
		panic(fmt.Sprintf("prim: HierSequenceFor on a %v spec", s.Algo))
	case s.Algo == AlgoHierarchical && !hier:
		panic("prim: hierarchical sequences need node grouping; build executors with a Wirings")
	case s.Algo == AlgoAuto:
		panic("prim: AlgoAuto must be resolved to a concrete algorithm before building sequences")
	}
	n := s.N()
	q := &Sequence{kind: s.Kind, algo: s.Algo, n: n, count: s.Count, root: s.Root, chunkElems: s.chunk()}
	if hier {
		q.hier = &hierPlan{g: g}
	}
	if s.Counts != nil {
		// The caller may change its count matrix once the collective
		// closes: the plan keeps a copy, and room for a flat
		// all-to-all-v's transit lengths.
		q.counts = make([]int, 0, n*n+n)
		for _, row := range s.Counts {
			q.counts = append(q.counts, row...)
		}
	}
	q.parts = q.flat[:]
	p := &q.parts[0]
	p.Stages = q.stage[:0] // a flat plan's one stage is the plan's own
	switch {
	case n == 1 && (hier || !s.Kind.InPlace()):
		sendCount, _ := BufferCountsFor(s, 0)
		p.noopCopy(sendCount)
		return q
	case hier:
		s.hierSeq(q)
		return q
	case !s.Kind.InPlace():
		s.allToAllSeq(q)
		return q
	}
	switch s.Kind {
	case AllReduce:
		s.ringSeq(p, schedAllReduce, n)
		q.seeded = true
	case AllGather:
		s.ringSeq(p, schedAllGather, n)
	case ReduceScatter:
		s.ringSeq(p, schedReduceScatter, n)
		q.seeded = true
	case Broadcast:
		s.chainSeq(p, n, s.Root, false) // the root copies its send buffer (ownSeg)
	case Reduce:
		s.chainSeq(p, n, s.Root+1, true) // root+1 first, root last; non-roots reduce in scratch (work)
	default:
		panic(fmt.Sprintf("prim: unknown kind %v", s.Kind))
	}
	return q
}

// addStage appends a stage to p and returns it for the caller to set its
// ring or hop.
func (p *part) addStage(label string, rounds int) *Stage {
	p.Stages = append(p.Stages, Stage{Label: label, Rounds: rounds})
	return &p.Stages[len(p.Stages)-1]
}

// ringStage appends a stage running r, one round per chunk of its
// longest block.
func (p *part) ringStage(label string, r ring, chunk int) {
	p.addStage(label, r.rounds(chunk)).ring = r
}

// sched names the schedule a ring stage runs.
type sched uint8

const (
	schedAllReduce sched = iota
	schedAllGather
	schedReduceScatter
	schedChain // the rooted kinds' chain
	schedHops  // the all-to-all's store-and-forward exchange
)

// ring is one ring schedule: the flat ring over the ranks on endpoint 0,
// or the hierarchical leader ring over the per-node aggregates on a
// leader's ring endpoint. The schedules move numbered blocks; blk maps
// them onto working-buffer segments (nil: block b is segment b). A block
// is as long as its segment in segs, an all-to-all block as size says.
// A stage holds its ring by value and computes action k at a place from
// the cursor: every field is final once the plan is built.
type ring struct {
	sched sched
	// reduce: a chain's receiving places fold the chunks in.
	reduce bool
	// Position pos reads the ring at place mod(pos-place, n): place is
	// the position at place 0 (a chain's first, 0 on the other flat
	// schedules). A leader ring, which only its node's leader reads, has
	// its leader's position less its node there, so that the leader reads
	// it at its node's place.
	place, n int
	conn     int
	blk      []int
	segs     []segRange
	// count is every all-to-all block's length when counts is nil;
	// otherwise block (i→j) is counts[i·n+j] elements long.
	count  int
	counts []int
}

// at returns the place position pos reads the ring at.
func (r *ring) at(pos int) int {
	return mod(pos-r.place, r.n)
}

// seg returns the working-buffer segment of block b.
func (r *ring) seg(b int) int { return blockSeg(r.blk, b) }

// blockSeg returns the segment of block b under the map blk (nil: block
// b is segment b).
func blockSeg(blk []int, b int) int {
	if blk == nil {
		return b
	}
	return blk[b]
}

// act sets *a to the step that sends block send and receives block recv
// (-1: no such half) over the ring's endpoint, each half bounded by its
// segment's length; reduce folds the received chunk into the block.
func (r *ring) act(a *Action, send, recv int, reduce bool) {
	*a = Action{SendSeg: -1, RecvSeg: -1, Reduce: reduce, SendConn: r.conn, RecvConn: r.conn}
	if send >= 0 {
		a.SendSeg = r.seg(send)
		a.SendElems = r.segs[a.SendSeg].len()
	}
	if recv >= 0 {
		a.RecvSeg = r.seg(recv)
		a.RecvElems = r.segs[a.RecvSeg].len()
	}
}

// rounds is the chunk-round count covering the longest of the n blocks.
func (r *ring) rounds(chunk int) int {
	longest := 0
	for b := 0; b < r.n; b++ {
		longest = max(longest, r.segs[r.seg(b)].len())
	}
	return ceilDiv(longest, chunk)
}

// len returns the schedule's action count per round.
func (r *ring) len() int {
	n := r.n
	switch r.sched {
	case schedAllReduce:
		return 2 * (n - 1)
	case schedAllGather:
		if n == 1 {
			return 0
		}
		return n
	case schedReduceScatter:
		return n - 1
	case schedChain:
		return min(n-1, 1)
	}
	return n * (n - 1) / 2
}

// action sets *a to step k at place p:
//   - all-reduce: a reduce-scatter phase — step st sends block p-st and
//     reduces block p-st-1 in — then an all-gather phase — step st sends
//     block p+1-st and receives block p-st;
//   - all-gather: step 0 sends the place's own block; steps 1..n-1
//     receive block p-st and forward it, all but the last;
//   - reduce-scatter: the all-reduce's reduce-scatter phase shifted one
//     place, so the place finishes holding block p (NCCL's
//     reduce-scatter output placement);
//   - chain: the one block; the first place only sends, the last only
//     receives, and every other receives and forwards;
//   - all-to-all: hop.
func (r *ring) action(p, k int, a *Action) {
	n := r.n
	switch r.sched {
	case schedAllReduce:
		if k < n-1 {
			r.act(a, mod(p-k, n), mod(p-k-1, n), true)
		} else {
			k -= n - 1
			r.act(a, mod(p+1-k, n), mod(p-k, n), false)
		}
	case schedAllGather:
		switch b := mod(p-k, n); k {
		case 0:
			r.act(a, p, -1, false)
		case n - 1:
			r.act(a, -1, b, false)
		default:
			r.act(a, b, b, false)
		}
	case schedReduceScatter:
		r.act(a, mod(p-k-1, n), mod(p-k-2, n), true)
	case schedChain:
		switch p {
		case 0:
			r.act(a, 0, -1, false)
		case n - 1:
			r.act(a, -1, 0, r.reduce)
		default:
			r.act(a, 0, 0, r.reduce)
		}
	default:
		r.hop(p, k, a)
	}
}

// size is the length of the all-to-all's block (i→j).
func (r *ring) size(i, j int) int {
	if r.counts == nil {
		return r.count
	}
	return r.counts[i*r.n+j]
}

// hop is step k of the all-to-all's store-and-forward exchange at place
// p. Block (i→j), size(i, j) elements, travels mod(j-i, n) hops. The
// schedule runs distances st = 1..n-1; within a distance, hop h of the
// block is forwarded at step (st, h), so every step each place sends
// exactly one block chunk and receives exactly one — uniform flow that
// keeps the bounded connectors deadlock-free under in-order execution
// and resumable under preemption. Blocks [0, n) are the place's outbound
// blocks by destination, [n, 2n) its inbound ones by origin, and 2n,
// 2n+1 the two transit slots it alternates between. Every action carries
// the size of the block it moves, since a transit slot is generally
// longer than the block it holds. Its n(n-1)/2 actions are computed, not
// listed: listed, the plans of n ranks would be O(n³) bytes.
//
// Step k = st(st-1)/2 + h-1 is hop h of distance st. The f forwarded
// hops (h < st) before it alternate between the transit slots, so it
// receives a forwarded block into slot f mod 2 and forwards the one the
// forwarded hop before it received, from slot (f-1) mod 2.
func (r *ring) hop(p, k int, a *Action) {
	n := r.n
	if k < 0 || k >= n*(n-1)/2 {
		panic(fmt.Sprintf("prim: all-to-all step %d of %d", k, n*(n-1)/2))
	}
	st := int((1 + math.Sqrt(float64(1+8*k))) / 2) // exact while 1+8k < 2^52
	h := k - st*(st-1)/2 + 1
	f := (st-1)*(st-2)/2 + h - 1
	so, ro := mod(p-h+1, n), mod(p-h, n) // origins of the blocks sent and received
	*a = Action{
		SendSeg: r.seg(2*n + (f+1)%2), SendElems: r.size(so, mod(so+st, n)), SendConn: r.conn,
		RecvSeg: r.seg(n + ro), RecvElems: r.size(ro, mod(ro+st, n)), RecvConn: r.conn,
	}
	if h == 1 {
		a.SendSeg = r.seg(mod(p+st, n)) // inject the own block st hops ahead
	}
	if h < st {
		a.RecvSeg = r.seg(2*n + f%2) // forwarded at the next step
	}
}

// transit returns the longest block place p receives at a non-final hop:
// the length of its transit slots.
func (r *ring) transit(p int) int {
	n, transit := r.n, 0
	for st := 1; st < n; st++ {
		for h := 1; h < st; h++ {
			o := mod(p-h, n)
			transit = max(transit, r.size(o, mod(o+st, n)))
		}
	}
	return transit
}

// moved returns the longest block that moves at all, which sets the
// round count — the same on every place, so the schedule stays
// step-matched and shorter blocks send empty chunks in their tail rounds.
func (r *ring) moved() int {
	moved := 0
	for i := 0; i < r.n; i++ {
		for j := 0; j < r.n; j++ {
			if i != j {
				moved = max(moved, r.size(i, j))
			}
		}
	}
	return moved
}

// ringSeq lays out a flat ring kind's n blocks, block b on ring place b,
// over a working buffer that ends where the last block does: the
// all-reduce's evenSegs of Count, the all-gather's Count-element
// contributions, and the reduce-scatter's views of the recv buffer's
// Count/n elements. A reduce-scatter block b's own contribution is its
// seed, send range seed(b), and the views never hold two blocks at
// once, since a ring block is touched once per chunk round and the
// rounds run outermost: step 0 sends the block the init copy seeded,
// which is never received into, every later step sends the block the
// step before reduced, and a reduce copies its block's own slice in
// from the send buffer first. The copy-out of block pos onto itself
// moves nothing.
func (s Spec) ringSeq(p *part, sc sched, n int) {
	l := &p.lead
	l.segs = make([]segRange, n)
	for b := range l.segs {
		switch sc {
		case schedAllReduce:
			l.segs[b] = evenSeg(s.Count, n, b)
		case schedAllGather:
			l.segs[b] = segRange{Lo: b * s.Count, Hi: (b + 1) * s.Count}
		default:
			l.segs[b] = segRange{Hi: s.Count / n}
		}
	}
	l.workLen, l.initCopyOwnSeg, l.ownOut = l.segs[n-1].Hi, initCopyOwn, sc == schedReduceScatter
	p.ringStage("", ring{sched: sc, n: n, segs: l.segs}, s.chunk())
}

// chainSeq is the one-segment chain of the rooted kinds whose first place
// is position first: every place receives the block from the one before
// and forwards it, reducing in when reduce is set. Every position starts
// from its whole send buffer, but a broadcast's non-roots (ownSeg).
func (s Spec) chainSeq(p *part, n, first int, reduce bool) {
	l := &p.lead
	l.segs = []segRange{{Lo: 0, Hi: s.Count}}
	p.addStage("", ceilDiv(s.Count, s.chunk())).ring = ring{sched: schedChain, reduce: reduce, place: first, n: n, segs: l.segs}
	l.workLen = s.Count
	l.initCopyOwnSeg = initCopyWhole
}

// allToAllSeq builds the ring all-to-all of both variants (AllToAll is
// AllToAllv with every block Count elements long). One segment per block
// of the ring schedule, each in the buffer it lives in:
//
//	[0, n)      own blocks, block j sized count(pos, j): the send
//	            buffer's layout, read in place (nothing is copied in)
//	[n, 2n)     final blocks, block o sized count(o, pos): the recv
//	            buffer's layout, received in place
//	[2n, 2n+2)  two alternating transit slots: the whole scratch
//
// The copy-out concatenates origin blocks 0..n-1, exactly the recv
// layout of BufferCountsFor: only the self block moves, from the send
// buffer. Final blocks land in recv while own blocks are still being
// sent, so the two buffers must not overlap (Kind.InPlace). The uniform
// all-to-all's segments are listed, the all-to-all-v's computed
// (countedSeg).
func (s Spec) allToAllSeq(q *Sequence) {
	n, p := q.n, &q.parts[0]
	l := &p.lead
	r := ring{sched: schedHops, n: n, count: s.Count, counts: q.counts} // a valid spec sets one of the two
	p.addStage("", ceilDiv(r.moved(), q.chunkElems)).ring = r
	l.initCopyOwnSeg, l.work, l.inPlace, l.ownOut = initCopyInPlace, inScratch, n, true
	if s.Kind == AllToAllv {
		q.transit = q.counts[n*n : n*n+n]
		for pos := range q.transit {
			q.transit[pos] = r.transit(pos)
		}
		return
	}
	transit := r.transit(0)
	l.segs = append(s.blocksInPlace(make([]segRange, 0, 2*n+2), 0), segRange{Lo: 0, Hi: transit}, segRange{Lo: transit, Hi: 2 * transit})
	l.workLen = 2 * transit
}

// blocksInPlace appends position pos's first 2n all-to-all segments to
// segs: n blocks tiling the send buffer, block j sized count(pos, j),
// then n tiling the recv buffer, block o sized count(o, pos).
func (s Spec) blocksInPlace(segs []segRange, pos int) []segRange {
	n, send, recv := s.N(), 0, 0
	for j := 0; j < n; j++ {
		segs = append(segs, segRange{Lo: send, Hi: send + s.count(pos, j)})
		send = segs[len(segs)-1].Hi
	}
	for o := 0; o < n; o++ {
		segs = append(segs, segRange{Lo: recv, Hi: recv + s.count(o, pos)})
		recv = segs[len(segs)-1].Hi
	}
	return segs
}

// noopCopy makes p the explicit single-participant plan of the
// all-to-all variants and every hierarchical kind: one round of no
// actions, the init copy (recv = send) moving the data — visibly "one
// no-op round", not the executor tolerating empty rounds.
func (p *part) noopCopy(count int) {
	p.addStage("", 1)
	p.lead.segs = []segRange{{Lo: 0, Hi: count}}
	p.lead.workLen, p.lead.initCopyOwnSeg = count, initCopyWhole
}

// BufferCounts returns the required send/recv buffer element counts for
// a spec, following NCCL buffer-size conventions: all-gather's recv
// buffer holds Count×N, reduce-scatter's holds Count/N, all-to-all's
// send and recv both hold Count×N. AllToAllv buffer sizes are per-rank
// (row and column sums of the Counts matrix); use BufferCountsFor.
func BufferCounts(s Spec) (sendCount, recvCount int) {
	switch s.Kind {
	case AllReduce, Broadcast, Reduce:
		return s.Count, s.Count
	case AllGather:
		return s.Count, s.Count * s.N()
	case ReduceScatter:
		return s.Count, s.Count / s.N()
	case AllToAll:
		return s.Count * s.N(), s.Count * s.N()
	case AllToAllv:
		panic("prim: all-to-all-v buffer counts are per-rank; use BufferCountsFor")
	default:
		panic(fmt.Sprintf("prim: unknown kind %v", s.Kind))
	}
}

// BufferCountsFor returns the send/recv buffer element counts required
// of the participant at ring position pos. For the uniform kinds it
// equals BufferCounts; for AllToAllv the send buffer holds the sum of
// row pos of the Counts matrix (blocks to each peer, in ring order)
// and the recv buffer the sum of column pos (blocks from each origin,
// in ring order).
func BufferCountsFor(s Spec, pos int) (sendCount, recvCount int) {
	if s.Kind != AllToAllv {
		return BufferCounts(s)
	}
	for _, row := range s.Counts {
		recvCount += row[pos]
	}
	return sumInts(s.Counts[pos]), recvCount
}
