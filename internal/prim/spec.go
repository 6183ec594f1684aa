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
	"strconv"

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
	// Same and Fingerprint treat the algorithm as part of the
	// collective's identity, because ring and hierarchical executors
	// use incompatible wiring.
	Algo Algorithm
}

// Timing returns a copy of the spec with TimingOnly set: the
// collective behaves identically for scheduling and time charging but
// moves no bytes. Builder-style helper for performance experiments.
func (s Spec) Timing() Spec {
	s.TimingOnly = true
	return s
}

// Same reports whether two specs are interchangeable for registration,
// collective-ID assignment and communicator pooling: every field is
// equal, including the algorithm and the AllToAllv count matrix (two
// variable-count collectives with different routing must not share a
// registration). It holds exactly when the Fingerprints are equal, and
// allocates nothing.
func (s Spec) Same(o Spec) bool {
	return s.Kind == o.Kind && s.Algo == o.Algo && s.Count == o.Count && s.Type == o.Type && s.Op == o.Op &&
		s.Root == o.Root && s.ChunkElems == o.ChunkElems && s.TimingOnly == o.TimingOnly &&
		slices.Equal(s.Ranks, o.Ranks) && slices.EqualFunc(s.Counts, o.Counts, slices.Equal[[]int])
}

// Fingerprint returns a string that identifies the spec up to Same:
// specs with equal fingerprints are interchangeable, so it keys the
// collective-ID assignment that maps specs to IDs.
//
// The text is fmt's "%d|%d|%d|%d|%d|%d|%d|%t|%v|%v" of Kind, Algo, Count,
// Type, Op, Root, ChunkElems, TimingOnly, Ranks and Counts, built by hand:
// every registration and pool lookup asks for it, and fmt reflects over
// the two slices element by element.
func (s Spec) Fingerprint() string {
	var buf [128]byte
	b := buf[:0]
	for _, v := range [...]int{int(s.Kind), int(s.Algo), s.Count, int(s.Type), int(s.Op), s.Root, s.ChunkElems} {
		b = append(strconv.AppendInt(b, int64(v), 10), '|')
	}
	b = append(strconv.AppendBool(b, s.TimingOnly), '|')
	b = append(appendInts(b, s.Ranks), '|', '[')
	for i, row := range s.Counts {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendInts(b, row)
	}
	return string(append(b, ']'))
}

// appendInts appends v as fmt's %v prints a []int: "[1 2 3]".
func appendInts(b []byte, v []int) []byte {
	b = append(b, '[')
	for i, n := range v {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, ']')
}

func (s Spec) chunk() int {
	if s.ChunkElems > 0 {
		return s.ChunkElems
	}
	return DefaultChunkElems
}

// N returns the number of participants.
func (s Spec) N() int { return len(s.Ranks) }

// Bytes returns the total semantic payload size of the operation:
// Count elements for the uniform kinds, Count×N² for AllToAll (Count
// is the per-peer block size, so the exchange carries N² blocks), and
// the full Counts matrix sum for AllToAllv — the two all-to-all
// variants therefore report directly comparable totals.
func (s Spec) Bytes() int {
	switch s.Kind {
	case AllToAll:
		return s.Count * s.N() * s.N() * s.Type.Size()
	case AllToAllv:
		total := 0
		for _, row := range s.Counts {
			total += sumInts(row)
		}
		return total * s.Type.Size()
	default:
		return s.Count * s.Type.Size()
	}
}

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
)

// Stage is one phase of a sequence: its Len actions run Rounds times
// (one chunk round per pass) before the next stage starts. A flat ring
// sequence is one unlabelled stage; the hierarchical builders make one
// stage per intra-node exchange offset, convoy, and leader-ring
// schedule. A stage lists its actions, except the all-to-all's hop
// schedule, which Action computes from the cursor: its n(n-1)/2 actions
// would make the plans of n ranks O(n³) bytes.
type Stage struct {
	// Label names the phase for diagnostics and preemption tests
	// ("intra", "pack", "gather", "inter-ring", "scatter"; "" on the
	// flat ring).
	Label string
	// actions is a listed stage's per-round action list.
	actions []Action
	// Rounds is how many times the actions run (one chunk each).
	Rounds int
	// hops generates the actions of an all-to-all stage (hops.n > 0).
	hops hops
}

// Len returns the stage's action count per round.
func (st *Stage) Len() int {
	if st.hops.n > 0 {
		return st.hops.n * (st.hops.n - 1) / 2
	}
	return len(st.actions)
}

// Action returns the stage's action k, 0 ≤ k < Len().
func (st *Stage) Action(k int) Action {
	if st.hops.n > 0 {
		return st.hops.action(k)
	}
	return st.actions[k]
}

// Sequence is the per-rank execution plan for one collective: its
// stages, the segment layout over the send, recv and scratch buffers,
// and the init and copy-out moves around them. The executor's dynamic
// context is a cursor over the stages.
//
// A plan is built by appending into a Sequence's slices, so a plan
// rebuilt over an old one reuses its arrays. A built plan has no nil
// slices: one rebuilt over another's storage is reflect.DeepEqual to
// the same plan built over an empty Sequence.
type Sequence struct {
	// Stages are the phases in execution order.
	Stages []Stage
	segs   []segRange
	// chunkElems is the per-round slice width within each segment.
	chunkElems int
	// workLen is the element length of the working buffer.
	workLen int
	// initCopyOwnSeg: at init, copy the send buffer (only seed(seg) of
	// it, in a seeded plan) into segs[seg] of the working buffer, or one
	// of the initCopy* sentinels.
	initCopyOwnSeg int
	// work is the working buffer: the recv buffer, or a scratch of
	// workLen elements the executor owns.
	work home
	// inPlace: segments [0, inPlace) are blocks of the send buffer and
	// [inPlace, 2·inPlace) blocks of the recv buffer, each buffer tiled
	// in order (the all-to-all's own and final blocks); every other
	// segment lies in the working buffer. (A home stored in each
	// segRange made it 24 bytes, not 16: +6 % allocated bytes per unit
	// on the benchmark's fabric_contended.)
	inPlace int
	// seeded: each segment's own contribution is its seed, a range of the
	// send buffer, which a reduce into the segment reads straight from
	// the send buffer as it folds the chunk in; the init copy copies only
	// initCopyOwnSeg's seed. The recv buffer then never holds the whole
	// send vector, which the reduce-scatter's is too short for.
	seeded bool
	// copyOut: after the final round, concatenate the listed segments
	// into the recv buffer in list order (none: the working buffer is
	// the recv buffer). A segment already at its place in the recv
	// buffer moves nothing, but the copy-out is priced whole.
	copyOut []int
}

// NumPrimitives returns the total primitive count across all stages and
// rounds — the quantity the paper's preemption analysis counts. Every
// stage runs at least once, so 0 means a pure init copy and copy-out
// (the single-rank no-op).
func (s *Sequence) NumPrimitives() int {
	total := 0
	for i := range s.Stages {
		total += s.Stages[i].Len() * s.Stages[i].Rounds
	}
	return total
}

// NumStages returns the stage count: 1 for flat ring sequences, the
// phase count for hierarchical ones.
func (s *Sequence) NumStages() int { return len(s.Stages) }

// TotalRounds returns the summed round count across stages — the number
// of chunk-round passes the executor makes end to end.
func (s *Sequence) TotalRounds() int {
	total := 0
	for _, st := range s.Stages {
		total += st.Rounds
	}
	return total
}

// seed is segment b's own contribution in a seeded plan: the send buffer
// holds every segment's, in segment order, so the seeds tile it.
func (s *Sequence) seed(b int) segRange {
	lo := 0
	for _, sr := range s.segs[:b] {
		lo += sr.len()
	}
	return segRange{Lo: lo, Hi: lo + s.segs[b].len()}
}

// home returns the buffer segment seg lives in.
func (s *Sequence) home(seg int) home {
	switch {
	case seg < s.inPlace:
		return inSend
	case seg < 2*s.inPlace:
		return inRecv
	}
	return s.work
}

// limitSlice returns the element range of segment seg covered in round c,
// clipped to the first elems elements of the segment. Both ends of a
// transfer compute the block's chunking from the same block length (the
// action's SendElems on one side, RecvElems on the other), so a short
// block in an oversized transit slot still slices identically on sender
// and receiver; rounds past the block's end yield empty slices, which
// still move (zero-length) chunks through the connectors.
func (s *Sequence) limitSlice(seg, c, elems int) segRange {
	lo := s.segs[seg].Lo
	limit := lo + elems
	lo += c * s.chunkElems
	return segRange{Lo: min(lo, limit), Hi: min(lo+s.chunkElems, limit)}
}

// sendSlice returns the element range action a's send half moves in
// round c.
func (s *Sequence) sendSlice(a Action, c int) segRange {
	return s.limitSlice(a.SendSeg, c, a.SendElems)
}

// recvSlice returns the element range action a's recv half fills in
// round c.
func (s *Sequence) recvSlice(a Action, c int) segRange {
	return s.limitSlice(a.RecvSeg, c, a.RecvElems)
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

func mod(a, n int) int { return ((a % n) + n) % n }

// SequenceFor builds the primitive sequence for the participant at
// position pos within s.Ranks, using the Ring algorithm and Simple
// protocol (the configuration the paper evaluates). Hierarchical specs
// need the cluster's node grouping and different wiring: build their
// executors with a Wirings, which builds their wiring and sequences.
func (s Spec) SequenceFor(pos int) *Sequence {
	return s.build(new(Sequence), pos, NodeGrouping{})
}

// build rebuilds q in place as the plan of the participant at position
// pos: the flat ring's, or, given the node grouping of a hierarchical
// wiring, the hierarchical one. The plan is appended into q's slices
// over their old arrays; SequenceFor and HierSequenceFor run it over an
// empty Sequence.
func (s Spec) build(q *Sequence, pos int, g NodeGrouping) *Sequence {
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
	if pos < 0 || pos >= n {
		panic(fmt.Sprintf("prim: position %d out of range (n=%d)", pos, n))
	}
	*q = Sequence{Stages: q.Stages[:0], segs: q.segs[:0], copyOut: q.copyOut[:0], chunkElems: s.chunk()}
	switch {
	case hier:
		s.hierSeq(q, pos, g)
	case s.Kind == AllReduce:
		s.allReduceSeq(q, pos, n)
	case s.Kind == AllGather:
		s.allGatherSeq(q, pos, n)
	case s.Kind == ReduceScatter:
		s.reduceScatterSeq(q, pos, n)
	case s.Kind == Broadcast:
		s.broadcastSeq(q, pos, n)
	case s.Kind == Reduce:
		s.reduceSeq(q, pos, n)
	case s.Kind == AllToAll || s.Kind == AllToAllv:
		s.allToAllSeq(q, pos, n)
	default:
		panic(fmt.Sprintf("prim: unknown kind %v", s.Kind))
	}
	if q.copyOut == nil {
		q.copyOut = []int{}
	}
	return q
}

// stage appends a stage to q, its action list empty (never nil) over the
// array the stage at that index held before, and returns it for the
// caller to append the actions to (before the next stage is appended) or
// to set its hops.
func (q *Sequence) stage(label string, rounds int) *Stage {
	i := len(q.Stages)
	q.Stages = slices.Grow(q.Stages, 1)[:i+1]
	st := &q.Stages[i]
	acts := st.actions[:0]
	if acts == nil {
		acts = []Action{}
	}
	*st = Stage{Label: label, actions: acts, Rounds: rounds}
	return st
}

// dropEmpty removes the last stage if it has no actions.
func (q *Sequence) dropEmpty() {
	if i := len(q.Stages) - 1; q.Stages[i].Len() == 0 {
		q.Stages = q.Stages[:i]
	}
}

// evenSegs appends the n evenSeg segments of count elements to q.
func (q *Sequence) evenSegs(count, n int) {
	q.segs = slices.Grow(q.segs, n)
	for i := 0; i < n; i++ {
		q.segs = append(q.segs, evenSeg(count, n, i))
	}
}

// ring is one ring schedule seen from one of its n places: the flat
// ring over the ranks on endpoint 0, or the hierarchical leader ring
// over the per-node aggregates on a leader's ring endpoint. The
// schedules move numbered blocks; blk maps them onto working-buffer
// segments (nil: block b is segment b). A block is as long as its
// segment in segs.
type ring struct {
	place, n int
	blk      []int
	conn     int
	segs     []segRange
}

// seg returns the working-buffer segment of block b.
func (r ring) seg(b int) int {
	if r.blk == nil {
		return b
	}
	return r.blk[b]
}

// act is the step that sends block send and receives block recv (-1:
// no such half) over the ring's endpoint, each half bounded by its
// segment's length; reduce folds the received chunk into the block.
func (r ring) act(send, recv int, reduce bool) Action {
	a := Action{SendSeg: -1, RecvSeg: -1, Reduce: reduce, SendConn: r.conn, RecvConn: r.conn}
	if send >= 0 {
		a.SendSeg = r.seg(send)
		a.SendElems = r.segs[a.SendSeg].len()
	}
	if recv >= 0 {
		a.RecvSeg = r.seg(recv)
		a.RecvElems = r.segs[a.RecvSeg].len()
	}
	return a
}

// rounds is the chunk-round count covering the longest of the n blocks.
func (r ring) rounds(chunk int) int {
	longest := 0
	for b := 0; b < r.n; b++ {
		longest = max(longest, r.segs[r.seg(b)].len())
	}
	return ceilDiv(longest, chunk)
}

// allReduce is a reduce-scatter phase — step st sends block place-st and
// reduces block place-st-1 in — then an all-gather phase — step st sends
// block place+1-st and receives block place-st.
func (r ring) allReduce(acts []Action) []Action {
	acts = slices.Grow(acts, 2*(r.n-1))
	for st := 0; st < r.n-1; st++ {
		acts = append(acts, r.act(mod(r.place-st, r.n), mod(r.place-st-1, r.n), true))
	}
	for st := 0; st < r.n-1; st++ {
		acts = append(acts, r.act(mod(r.place+1-st, r.n), mod(r.place-st, r.n), false))
	}
	return acts
}

// allGather sends the place's own block at step 0; steps 1..n-1 receive
// block place-st and forward it, all but the last.
func (r ring) allGather(acts []Action) []Action {
	if r.n == 1 {
		return acts
	}
	acts = append(slices.Grow(acts, r.n), r.act(r.place, -1, false))
	for st := 1; st < r.n; st++ {
		b := mod(r.place-st, r.n)
		fwd := b
		if st == r.n-1 {
			fwd = -1
		}
		acts = append(acts, r.act(fwd, b, false))
	}
	return acts
}

// reduceScatter is allReduce's reduce-scatter phase shifted one place,
// so the place finishes holding block place (NCCL's reduce-scatter
// output placement).
func (r ring) reduceScatter(acts []Action) []Action {
	acts = slices.Grow(acts, r.n-1)
	for st := 0; st < r.n-1; st++ {
		acts = append(acts, r.act(mod(r.place-st-1, r.n), mod(r.place-st-2, r.n), true))
	}
	return acts
}

// hops is the all-to-all's store-and-forward exchange seen from one of
// the n places of a ring: the flat ring's or the hierarchical leader
// ring's, whose endpoint is conn and whose blocks map onto working-buffer
// segments through blk (nil: block b is segment b). Block (i→j),
// size(i, j) elements, travels mod(j-i, n) hops. The schedule runs
// distances st = 1..n-1; within a distance, hop h of the block is
// forwarded at step (st, h), so every step each place sends exactly one
// block chunk and receives exactly one — uniform flow that keeps the
// bounded connectors deadlock-free under in-order execution and
// resumable under preemption. Blocks [0, n) are the place's outbound
// blocks by destination, [n, 2n) its inbound ones by origin, and 2n,
// 2n+1 the two transit slots it alternates between. Every action
// carries the size of the block it moves, since a transit slot is
// generally longer than the block it holds.
//
// The stage holds hops by value and computes each action from its step
// index: every field is final once the plan is built.
type hops struct {
	place, n, conn int
	blk            []int
	// count is every block's length when counts is nil; otherwise block
	// (i→j) is counts[i][j] elements long.
	count  int
	counts [][]int
}

func (g hops) seg(b int) int {
	if g.blk == nil {
		return b
	}
	return g.blk[b]
}

func (g hops) size(i, j int) int {
	if g.counts == nil {
		return g.count
	}
	return g.counts[i][j]
}

// action is step k = st(st-1)/2 + h-1, hop h of distance st. The f
// forwarded hops (h < st) before it alternate between the transit
// slots, so it receives a forwarded block into slot f mod 2 and
// forwards the one the forwarded hop before it received, from slot
// (f-1) mod 2.
func (g hops) action(k int) Action {
	n, p := g.n, g.place
	if k < 0 || k >= n*(n-1)/2 {
		panic(fmt.Sprintf("prim: all-to-all step %d of %d", k, n*(n-1)/2))
	}
	st := int((1 + math.Sqrt(float64(1+8*k))) / 2) // exact while 1+8k < 2^52
	h := k - st*(st-1)/2 + 1
	f := (st-1)*(st-2)/2 + h - 1
	so, ro := mod(p-h+1, n), mod(p-h, n) // origins of the blocks sent and received
	a := Action{
		SendSeg: g.seg(2*n + (f+1)%2), SendElems: g.size(so, mod(so+st, n)), SendConn: g.conn,
		RecvSeg: g.seg(n + ro), RecvElems: g.size(ro, mod(ro+st, n)), RecvConn: g.conn,
	}
	if h == 1 {
		a.SendSeg = g.seg(mod(p+st, n)) // inject the own block st hops ahead
	}
	if h < st {
		a.RecvSeg = g.seg(2*n + f%2) // forwarded at the next step
	}
	return a
}

// bounds returns what sizes the exchange: the longest block the place
// receives at a non-final hop (the length of its transit slots) and the
// longest block that moves at all, which sets the round count — equal
// on every place, so the schedule stays step-matched and shorter blocks
// send empty chunks in their tail rounds.
func (g hops) bounds() (transit, moved int) {
	n := g.n
	for st := 1; st < n; st++ {
		for h := 1; h < st; h++ {
			o := mod(g.place-h, n)
			transit = max(transit, g.size(o, mod(o+st, n)))
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				moved = max(moved, g.size(i, j))
			}
		}
	}
	return transit, moved
}

func (s Spec) allReduceSeq(q *Sequence, pos, n int) {
	q.evenSegs(s.Count, n)
	r := ring{place: pos, n: n, segs: q.segs}
	st := q.stage("", r.rounds(q.chunkElems))
	st.actions = r.allReduce(st.actions)
	q.workLen = s.Count
	q.initCopyOwnSeg = pos // the block step 0 sends
	q.seeded = true
}

// allGatherSeq lays out n segments of exactly Count elements each, one
// per rank's contribution.
func (s Spec) allGatherSeq(q *Sequence, pos, n int) {
	q.segs = slices.Grow(q.segs, n)
	for i := 0; i < n; i++ {
		q.segs = append(q.segs, segRange{Lo: i * s.Count, Hi: (i + 1) * s.Count})
	}
	r := ring{place: pos, n: n, segs: q.segs}
	st := q.stage("", r.rounds(q.chunkElems))
	st.actions = r.allGather(st.actions)
	q.workLen = s.Count * n
	q.initCopyOwnSeg = pos
}

// reduceScatterSeq works in the recv buffer: its n blocks are all views
// of the recv buffer's Count/n elements, and block b's own contribution
// is its seed, send range seed(b). The views never hold two blocks at
// once, since a ring block is touched once per chunk round and the rounds
// run outermost: step 0 sends the block the init copy seeded, which is
// never received into, every later step sends the block the step before
// reduced, and a reduce copies its block's own slice in from the send
// buffer first. The copy-out of block pos onto itself moves nothing.
func (s Spec) reduceScatterSeq(q *Sequence, pos, n int) {
	q.segs = slices.Grow(q.segs, n)
	for i := 0; i < n; i++ {
		q.segs = append(q.segs, segRange{Lo: 0, Hi: s.Count / n})
	}
	r := ring{place: pos, n: n, segs: q.segs}
	st := q.stage("", r.rounds(q.chunkElems))
	st.actions = r.reduceScatter(st.actions)
	q.workLen = s.Count / n
	q.initCopyOwnSeg = mod(pos-1, n) // the block step 0 sends
	q.seeded = true
	q.copyOut = append(q.copyOut, pos)
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
// layout of BufferCountsFor: the final blocks are already there, so only
// the self block moves, once, from the send buffer. Final blocks land in
// recv while own blocks are still being sent, so the two buffers must
// not overlap (Kind.InPlace).
func (s Spec) allToAllSeq(q *Sequence, pos, n int) {
	if n == 1 {
		q.noopCopy(s.count(0, 0))
		return
	}
	g := hops{place: pos, n: n, count: s.Count, counts: s.Counts} // a valid spec sets one of the two
	transit, moved := g.bounds()
	q.segs = slices.Grow(q.segs, 2*n+2)
	s.blocksInPlace(q, pos)
	q.segs = append(q.segs, segRange{Lo: 0, Hi: transit}, segRange{Lo: transit, Hi: 2 * transit})
	q.copyOut = slices.Grow(q.copyOut, n)
	for o := 0; o < n; o++ {
		q.copyOut = append(q.copyOut, n+o) // final block from origin o
	}
	q.copyOut[pos] = pos // the self block, from the send buffer
	q.stage("", ceilDiv(moved, q.chunkElems)).hops = g
	q.workLen = 2 * transit
	q.initCopyOwnSeg = initCopyInPlace
	q.work = inScratch
}

// blocksInPlace lays out the first 2n segments of position pos's empty
// all-to-all plan q: n blocks tiling the send buffer, block j sized
// count(pos, j), then n tiling the recv buffer, block o sized count(o,
// pos).
func (s Spec) blocksInPlace(q *Sequence, pos int) {
	n := s.N()
	send, recv := 0, 0
	for j := 0; j < n; j++ {
		q.segs = append(q.segs, segRange{Lo: send, Hi: send + s.count(pos, j)})
		send = q.segs[j].Hi
	}
	for o := 0; o < n; o++ {
		q.segs = append(q.segs, segRange{Lo: recv, Hi: recv + s.count(o, pos)})
		recv = q.segs[n+o].Hi
	}
	q.inPlace = n
}

// noopCopy is the explicit single-participant all-to-all(-v) sequence:
// a one-round local copy (recv = send) with no ring actions. The init
// copy performs the data movement; Rounds is pinned to 1 — rather than
// the chunk-count a ring exchange would need — so the degenerate case
// is visibly "one no-op round", not an accident of the executor
// tolerating an empty action list across many rounds.
func (q *Sequence) noopCopy(count int) {
	q.stage("", 1)
	q.segs = append(q.segs, segRange{Lo: 0, Hi: count})
	q.workLen = count
	q.initCopyOwnSeg = initCopyWhole
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

func (s Spec) broadcastSeq(q *Sequence, pos, n int) {
	s.chainSeq(q, mod(pos-s.Root, n), n, false)
	q.initCopyOwnSeg = initCopyNone
	if pos == s.Root {
		q.initCopyOwnSeg = initCopyWhole // root copies its send buffer
	}
}

func (s Spec) reduceSeq(q *Sequence, pos, n int) {
	s.chainSeq(q, mod(pos-s.Root-1, n), n, true) // root+1 first, root last
	q.initCopyOwnSeg = initCopyWhole             // everyone starts from its own send data
	if pos != s.Root {
		q.work = inScratch
	}
}

// chainSeq is the one-segment chain of the rooted kinds at chain place
// chainPos: the first place only sends, the last only receives, and
// every other receives and forwards, reducing in when reduce is set.
// The caller sets the init copy.
func (s Spec) chainSeq(q *Sequence, chainPos, n int, reduce bool) {
	q.segs = append(q.segs, segRange{Lo: 0, Hi: s.Count})
	r := ring{n: 1, segs: q.segs}
	st := q.stage("", r.rounds(q.chunkElems))
	switch {
	case n == 1:
	case chainPos == 0:
		st.actions = append(st.actions, r.act(0, -1, false))
	case chainPos == n-1:
		st.actions = append(st.actions, r.act(-1, 0, reduce))
	default:
		st.actions = append(st.actions, r.act(0, 0, reduce))
	}
	q.workLen = s.Count
}
