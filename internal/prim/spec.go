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
	// at Open/Launch time from the runtime's tuning table, keyed by
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
	// buffer sizes follow from the same sums via BufferCountsFor.
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
	// Open/Launch time, before the spec is registered. Two
	// registrations of the same collective ID must agree on it —
	// sameSpec and Fingerprint treat the algorithm as part of the
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

// Fingerprint returns a string that identifies the spec up to the
// equality the registration layer enforces (every field that sameSpec
// compares). Specs with equal fingerprints are interchangeable for
// collective-ID assignment and communicator pooling.
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
	if s.Root < 0 || s.Root >= len(s.Ranks) {
		if s.Kind == Reduce || s.Kind == Broadcast {
			return fmt.Errorf("prim: root %d out of range for %d ranks", s.Root, len(s.Ranks))
		}
	}
	seen := make(map[int]struct{}, len(s.Ranks))
	for _, r := range s.Ranks {
		if _, dup := seen[r]; dup {
			return fmt.Errorf("prim: duplicate rank %d", r)
		}
		seen[r] = struct{}{}
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

// SendCountsFor returns the per-peer element counts ring position pos
// sends (row pos of the AllToAllv Counts matrix).
func (s Spec) SendCountsFor(pos int) []int {
	return append([]int(nil), s.Counts[pos]...)
}

// RecvCountsFor returns the per-peer element counts ring position pos
// receives (column pos of the AllToAllv Counts matrix).
func (s Spec) RecvCountsFor(pos int) []int {
	out := make([]int, len(s.Counts))
	for i, row := range s.Counts {
		out[i] = row[pos]
	}
	return out
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// Action is one primitive: a fused subset of {send, recv, reduce, copy}.
// SendSeg / RecvSeg name the working-buffer segment the action touches;
// -1 means the action has no send (or recv) half. When Reduce is false a
// received chunk overwrites the segment slice (copy); when true it is
// reduced into it.
type Action struct {
	// SendSeg is the working-buffer segment the send half reads (-1 = none).
	SendSeg int
	// RecvSeg is the working-buffer segment the recv half writes (-1 = none).
	RecvSeg int
	// Reduce selects reduce-into (true) vs copy-over (false) for the recv half.
	Reduce bool
	// SendElems / RecvElems bound the element count the action's halves
	// move, counted from the segment start. They are consulted only in
	// ragged (AllToAllv) sequences, where a transit slot is sized to the
	// largest in-flight block and the block it currently carries may be
	// shorter — including zero-length blocks for zero-count peers, which
	// still exchange (empty) chunks so the uniform ring schedule keeps
	// its flow-control token per step. Even sequences ignore them and
	// move whole segments.
	SendElems, RecvElems int
	// SendConn / RecvConn select which of the executor's send (recv)
	// endpoints the action's halves use. Ring sequences have exactly one
	// endpoint each (the ring successor / predecessor), so flat actions
	// leave them 0; hierarchical sequences index the intra-node mesh and
	// leader-ring endpoints.
	SendConn, RecvConn int
	// LocalCopy marks a connector-free action: copy SendElems elements
	// from the start of segment SendSeg to the start of segment RecvSeg
	// within the working buffer (the hierarchical leader packing its own
	// cross-node blocks into the aggregate staging area). LocalCopy
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

// segRange is an element range [Lo, Hi) within the working buffer.
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
	// elements of a (longer) working buffer — the all-to-all layout,
	// whose working buffer also holds in-flight and received blocks.
	initCopyPrefix = -3
)

// Stage is one phase of a multi-stage sequence: its action list runs
// Rounds times (one chunk round per pass) before the next stage
// starts. Flat ring sequences are single-stage and keep their actions
// directly on the Sequence; the hierarchical all-to-all builds one
// stage per intra-node exchange offset, gather convoy, leader-ring
// schedule, and scatter convoy.
type Stage struct {
	// Label names the phase for diagnostics and preemption tests
	// ("intra", "pack", "gather", "inter-ring", "scatter").
	Label string
	// Actions is the stage's per-round action list.
	Actions []Action
	// Rounds is how many times the action list runs (one chunk each).
	Rounds int
}

// Sequence is the per-rank execution plan for one collective: the
// primitive actions of one chunk round, the working-buffer segment
// layout, and the number of chunk rounds needed to cover the data.
type Sequence struct {
	Actions []Action
	segs    []segRange
	// Rounds is how many times the action list runs (once per chunk).
	Rounds int
	// Stages, when non-nil, replaces the flat Actions/Rounds pair with
	// an ordered list of phases, each with its own action list and
	// round count — the hierarchical all-to-all representation. The
	// executor's dynamic context then includes the stage index.
	Stages []Stage
	// chunkElems is the per-round slice width within each segment.
	chunkElems int
	// workLen is the element length of the working buffer.
	workLen int
	// initCopyOwnSeg: at init, copy the send buffer into segs[seg] of
	// the working buffer, or one of the initCopy* sentinels.
	initCopyOwnSeg int
	// useScratch: the working buffer is an internal scratch area rather
	// than the user's recv buffer.
	useScratch bool
	// copyOutSeg: after the final round, copy segs[copyOutSeg] of the
	// working buffer into the recv buffer (-1 = none).
	copyOutSeg int
	// copyOutSegs: after the final round, concatenate the listed
	// working-buffer segments into the recv buffer in list order. Used
	// when the result is scattered across the working buffer (all-to-
	// all); takes precedence over copyOutSeg when non-empty.
	copyOutSegs []int
	// ragged: segments carry variable-length blocks (AllToAllv), so the
	// executor slices each action by its SendElems/RecvElems bound
	// instead of the full segment extent.
	ragged bool
}

// NumPrimitives returns the total primitive count across all rounds
// (and, for multi-stage sequences, all stages) — the quantity the
// paper's preemption analysis counts.
func (s *Sequence) NumPrimitives() int {
	if s.Stages == nil {
		return len(s.Actions) * s.Rounds
	}
	total := 0
	for _, st := range s.Stages {
		total += len(st.Actions) * st.Rounds
	}
	return total
}

// NumStages returns the stage count: 1 for flat ring sequences, the
// phase count for hierarchical ones.
func (s *Sequence) NumStages() int {
	if s.Stages == nil {
		return 1
	}
	return len(s.Stages)
}

// TotalRounds returns the summed round count across stages (equal to
// Rounds for flat sequences) — the number of chunk-round passes the
// executor makes end to end.
func (s *Sequence) TotalRounds() int {
	if s.Stages == nil {
		return s.Rounds
	}
	total := 0
	for _, st := range s.Stages {
		total += st.Rounds
	}
	return total
}

// stageAt returns stage i, wrapping the flat Actions/Rounds pair as the
// implicit single stage of ring sequences.
func (s *Sequence) stageAt(i int) Stage {
	if s.Stages == nil {
		return Stage{Actions: s.Actions, Rounds: s.Rounds}
	}
	return s.Stages[i]
}

// totalActions counts actions across stages (0 means the sequence is a
// pure init-copy/copy-out, e.g. the single-rank no-op).
func (s *Sequence) totalActions() int {
	if s.Stages == nil {
		return len(s.Actions)
	}
	total := 0
	for _, st := range s.Stages {
		total += len(st.Actions)
	}
	return total
}

// roundSlice returns the element range of segment seg covered in round c
// relative to the working buffer, clipped to the segment.
func (s *Sequence) roundSlice(seg, c int) segRange {
	sr := s.segs[seg]
	lo := sr.Lo + c*s.chunkElems
	hi := lo + s.chunkElems
	if lo > sr.Hi {
		lo = sr.Hi
	}
	if hi > sr.Hi {
		hi = sr.Hi
	}
	return segRange{Lo: lo, Hi: hi}
}

// limitSlice is roundSlice additionally clipped to the first elems
// elements of the segment — the ragged-sequence slicing rule. Both ends
// of a transfer compute the block's chunking from the same block length
// (the action's SendElems on one side, RecvElems on the other), so a
// short block in an oversized transit slot still slices identically on
// sender and receiver; rounds past the block's end yield empty slices,
// which still move (zero-length) chunks through the connectors.
func (s *Sequence) limitSlice(seg, c, elems int) segRange {
	sr := s.roundSlice(seg, c)
	if !s.ragged {
		return sr
	}
	limit := s.segs[seg].Lo + elems
	if sr.Lo > limit {
		sr.Lo = limit
	}
	if sr.Hi > limit {
		sr.Hi = limit
	}
	return sr
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

// evenSegs splits count elements into n contiguous near-equal segments.
func evenSegs(count, n int) []segRange {
	segs := make([]segRange, n)
	base := count / n
	rem := count % n
	lo := 0
	for i := 0; i < n; i++ {
		l := base
		if i < rem {
			l++
		}
		segs[i] = segRange{Lo: lo, Hi: lo + l}
		lo += l
	}
	return segs
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
// executors over a BuildHierFabricOn wiring, which calls HierSequenceFor.
func (s Spec) SequenceFor(pos int) *Sequence {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if s.Algo == AlgoHierarchical {
		panic("prim: hierarchical sequences need node grouping; build executors over a BuildHierFabricOn wiring")
	}
	if s.Algo == AlgoAuto {
		panic("prim: AlgoAuto must be resolved to a concrete algorithm before building sequences")
	}
	if pos < 0 || pos >= s.N() {
		panic(fmt.Sprintf("prim: position %d out of range (n=%d)", pos, s.N()))
	}
	n := s.N()
	switch s.Kind {
	case AllReduce:
		return s.allReduceSeq(pos, n)
	case AllGather:
		return s.allGatherSeq(pos, n)
	case ReduceScatter:
		return s.reduceScatterSeq(pos, n)
	case Broadcast:
		return s.broadcastSeq(pos, n)
	case Reduce:
		return s.reduceSeq(pos, n)
	case AllToAll:
		return s.allToAllSeq(pos, n)
	case AllToAllv:
		return s.allToAllvSeq(pos, n)
	default:
		panic(fmt.Sprintf("prim: unknown kind %v", s.Kind))
	}
}

func (s Spec) allReduceSeq(pos, n int) *Sequence {
	segs := evenSegs(s.Count, n)
	seq := &Sequence{
		segs:           segs,
		chunkElems:     s.chunk(),
		workLen:        s.Count,
		initCopyOwnSeg: initCopyWhole, // copy whole send buffer into recv buffer
		copyOutSeg:     -1,
	}
	maxSeg := 0
	for _, sr := range segs {
		if sr.len() > maxSeg {
			maxSeg = sr.len()
		}
	}
	seq.Rounds = ceilDiv(maxSeg, seq.chunkElems)
	if n == 1 {
		return seq
	}
	// Reduce-scatter phase: step s sends seg (pos-s), receives and
	// reduces seg (pos-s-1).
	for st := 0; st < n-1; st++ {
		seq.Actions = append(seq.Actions, Action{
			SendSeg: mod(pos-st, n),
			RecvSeg: mod(pos-st-1, n),
			Reduce:  true,
		})
	}
	// All-gather phase: step s sends seg (pos+1-s), receives seg (pos-s).
	for st := 0; st < n-1; st++ {
		seq.Actions = append(seq.Actions, Action{
			SendSeg: mod(pos+1-st, n),
			RecvSeg: mod(pos-st, n),
			Reduce:  false,
		})
	}
	return seq
}

func (s Spec) allGatherSeq(pos, n int) *Sequence {
	total := s.Count * n
	segs := evenSegsFixed(s.Count, n)
	seq := &Sequence{
		segs:           segs,
		chunkElems:     s.chunk(),
		workLen:        total,
		initCopyOwnSeg: pos,
		copyOutSeg:     -1,
	}
	seq.Rounds = ceilDiv(s.Count, seq.chunkElems)
	if n == 1 {
		return seq
	}
	// Ring all-gather: step 0 sends the rank's own segment; steps
	// 1..n-2 receive segment (pos-st) and forward it; step n-1
	// receives the final segment without forwarding.
	seq.Actions = append(seq.Actions, Action{SendSeg: pos, RecvSeg: -1})
	for st := 1; st <= n-1; st++ {
		a := Action{RecvSeg: mod(pos-st, n), SendSeg: mod(pos-st, n)}
		if st == n-1 {
			a.SendSeg = -1
		}
		seq.Actions = append(seq.Actions, a)
	}
	return seq
}

// evenSegsFixed builds n segments of exactly per elements each (used
// when every rank contributes the same count, as in all-gather).
func evenSegsFixed(per, n int) []segRange {
	segs := make([]segRange, n)
	for i := 0; i < n; i++ {
		segs[i] = segRange{Lo: i * per, Hi: (i + 1) * per}
	}
	return segs
}

func (s Spec) reduceScatterSeq(pos, n int) *Sequence {
	segs := evenSegs(s.Count, n)
	seq := &Sequence{
		segs:           segs,
		chunkElems:     s.chunk(),
		workLen:        s.Count,
		initCopyOwnSeg: initCopyWhole,
		useScratch:     true,
		copyOutSeg:     pos,
	}
	maxSeg := 0
	for _, sr := range segs {
		if sr.len() > maxSeg {
			maxSeg = sr.len()
		}
	}
	seq.Rounds = ceilDiv(maxSeg, seq.chunkElems)
	if n == 1 {
		return seq
	}
	// Indices are shifted one position relative to the all-reduce
	// reduce-scatter phase so rank r finishes holding seg[r], matching
	// NCCL's reduce-scatter output placement.
	for st := 0; st < n-1; st++ {
		seq.Actions = append(seq.Actions, Action{
			SendSeg: mod(pos-st-1, n),
			RecvSeg: mod(pos-st-2, n),
			Reduce:  true,
		})
	}
	return seq
}

// allToAllSeq builds the ring all-to-all: every rank holds one Count-
// element block per peer, and block (src=i, dst=j) travels (j-i) mod n
// hops along the ring. The schedule runs distances st = 1..n-1; within
// a distance, hop h of the block is forwarded at step (st, h), so every
// step each rank sends exactly one block chunk and receives exactly
// one — uniform flow that keeps the bounded connectors deadlock-free
// under in-order execution and resumable under preemption.
//
// Working-buffer (scratch) layout, in Count-element segments:
//
//	[0, n)      own send blocks (init copy of the send buffer)
//	[n, 2n)     received final blocks, indexed by origin rank position
//	[2n, 2n+2)  two alternating transit slots for blocks in flight
//
// The copy-out concatenates origin blocks 0..n-1 into the recv buffer;
// the rank's own self block (src=dst=pos) comes straight from the own-
// block area, which no action ever overwrites.
func (s Spec) allToAllSeq(pos, n int) *Sequence {
	if n == 1 {
		return noopCopySeq(s.Count, s.chunk())
	}
	segs := make([]segRange, 2*n+2)
	for i := range segs {
		segs[i] = segRange{Lo: i * s.Count, Hi: (i + 1) * s.Count}
	}
	seq := &Sequence{
		segs:           segs,
		chunkElems:     s.chunk(),
		workLen:        (2*n + 2) * s.Count,
		initCopyOwnSeg: initCopyPrefix,
		useScratch:     true,
		copyOutSeg:     -1,
	}
	seq.Rounds = ceilDiv(s.Count, seq.chunkElems)
	seq.copyOutSegs = make([]int, n)
	for o := 0; o < n; o++ {
		seq.copyOutSegs[o] = n + o // final block from origin o
	}
	seq.copyOutSegs[pos] = pos // self block stays in the own area
	transit, lastTransit := 0, 0
	for st := 1; st < n; st++ {
		for h := 1; h <= st; h++ {
			var a Action
			if h == 1 {
				// Inject the rank's own block destined st hops ahead.
				a.SendSeg = mod(pos+st, n)
			} else {
				// Forward the block received at the previous step.
				a.SendSeg = 2*n + lastTransit
			}
			if h == st {
				// Final hop: the block originated st hops behind.
				a.RecvSeg = n + mod(pos-st, n)
			} else {
				a.RecvSeg = 2*n + transit
				lastTransit = transit
				transit = 1 - transit
			}
			seq.Actions = append(seq.Actions, a)
		}
	}
	return seq
}

// noopCopySeq is the explicit single-participant all-to-all(-v)
// sequence: a one-round local copy (recv = send) with no ring actions.
// The init copy performs the data movement; Rounds is pinned to 1 —
// rather than the chunk-count a ring exchange would need — so the
// degenerate case is visibly "one no-op round", not an accident of the
// executor tolerating an empty action list across many rounds.
func noopCopySeq(count, chunk int) *Sequence {
	return &Sequence{
		segs:           []segRange{{Lo: 0, Hi: count}},
		chunkElems:     chunk,
		workLen:        count,
		initCopyOwnSeg: initCopyWhole,
		copyOutSeg:     -1,
		Rounds:         1,
	}
}

// allToAllvSeq builds the ragged-segment ring all-to-all: the same
// store-and-forward schedule as allToAllSeq (distances st = 1..n-1, hop
// h of a block forwarded at step (st, h), one block chunk sent and one
// received per step), but block (src=i, dst=j) carries Counts[i][j]
// elements instead of a uniform Count.
//
// Working-buffer (scratch) layout, as ragged segments:
//
//	[0, n)      own send blocks, block j sized Counts[pos][j]
//	            (init copy of the send buffer — identical layout)
//	[n, 2n)     received final blocks, block o sized Counts[o][pos]
//	[2n, 2n+2)  two alternating transit slots, each sized to the
//	            largest block this rank ever holds in flight
//
// Every action records the in-flight block's length (SendElems /
// RecvElems), because a transit slot is generally larger than the block
// it currently carries; the executor slices chunks against the block
// length so sender and receiver agree even when the slot does not.
// Rounds is derived from the largest travelling block in the whole
// matrix — identical on every rank, which keeps the step-for-step ring
// schedule aligned; shorter blocks simply send empty chunks in their
// tail rounds. The copy-out concatenates origin blocks 0..n-1 (the
// rank's own self block straight from the own-block area) with ragged
// offsets, exactly the recv-buffer layout of RecvCountsFor.
func (s Spec) allToAllvSeq(pos, n int) *Sequence {
	cnt := s.Counts
	if n == 1 {
		return noopCopySeq(cnt[0][0], s.chunk())
	}
	// Largest block received at a non-final hop sizes this rank's
	// transit slots; largest travelling block anywhere sets Rounds.
	maxTransit, maxMoved := 0, 0
	for st := 1; st < n; st++ {
		for h := 1; h < st; h++ {
			o := mod(pos-h, n)
			if l := cnt[o][mod(o+st, n)]; l > maxTransit {
				maxTransit = l
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && cnt[i][j] > maxMoved {
				maxMoved = cnt[i][j]
			}
		}
	}
	segs := make([]segRange, 2*n+2)
	lo := 0
	for j := 0; j < n; j++ { // own blocks, send-buffer layout
		segs[j] = segRange{Lo: lo, Hi: lo + cnt[pos][j]}
		lo = segs[j].Hi
	}
	for o := 0; o < n; o++ { // final blocks by origin
		segs[n+o] = segRange{Lo: lo, Hi: lo + cnt[o][pos]}
		lo = segs[n+o].Hi
	}
	for t := 0; t < 2; t++ { // transit slots
		segs[2*n+t] = segRange{Lo: lo, Hi: lo + maxTransit}
		lo = segs[2*n+t].Hi
	}
	seq := &Sequence{
		segs:           segs,
		chunkElems:     s.chunk(),
		workLen:        lo,
		initCopyOwnSeg: initCopyPrefix,
		useScratch:     true,
		copyOutSeg:     -1,
		ragged:         true,
	}
	seq.Rounds = ceilDiv(maxMoved, seq.chunkElems)
	seq.copyOutSegs = make([]int, n)
	for o := 0; o < n; o++ {
		seq.copyOutSegs[o] = n + o // final block from origin o
	}
	seq.copyOutSegs[pos] = pos // self block stays in the own area
	transit, lastTransit := 0, 0
	for st := 1; st < n; st++ {
		for h := 1; h <= st; h++ {
			var a Action
			sendOrig := mod(pos-(h-1), n) // origin of the block sent this step
			a.SendElems = cnt[sendOrig][mod(sendOrig+st, n)]
			if h == 1 {
				// Inject the rank's own block destined st hops ahead.
				a.SendSeg = mod(pos+st, n)
			} else {
				// Forward the block received at the previous step.
				a.SendSeg = 2*n + lastTransit
			}
			recvOrig := mod(pos-h, n) // origin of the block received this step
			a.RecvElems = cnt[recvOrig][mod(recvOrig+st, n)]
			if h == st {
				// Final hop: the block originated st hops behind.
				a.RecvSeg = n + recvOrig
			} else {
				a.RecvSeg = 2*n + transit
				lastTransit = transit
				transit = 1 - transit
			}
			seq.Actions = append(seq.Actions, a)
		}
	}
	return seq
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
	if s.Kind == AllToAllv {
		return sumInts(s.SendCountsFor(pos)), sumInts(s.RecvCountsFor(pos))
	}
	return BufferCounts(s)
}

func (s Spec) broadcastSeq(pos, n int) *Sequence {
	seq := &Sequence{
		segs:       []segRange{{Lo: 0, Hi: s.Count}},
		chunkElems: s.chunk(),
		workLen:    s.Count,
		copyOutSeg: -1,
	}
	seq.Rounds = ceilDiv(s.Count, seq.chunkElems)
	chainPos := mod(pos-s.Root, n)
	if chainPos == 0 {
		seq.initCopyOwnSeg = initCopyWhole // root copies its send buffer
	} else {
		seq.initCopyOwnSeg = initCopyNone
	}
	if n == 1 {
		return seq
	}
	switch {
	case chainPos == 0:
		seq.Actions = append(seq.Actions, Action{SendSeg: 0, RecvSeg: -1})
	case chainPos == n-1:
		seq.Actions = append(seq.Actions, Action{SendSeg: -1, RecvSeg: 0})
	default:
		seq.Actions = append(seq.Actions, Action{SendSeg: 0, RecvSeg: 0})
	}
	return seq
}

func (s Spec) reduceSeq(pos, n int) *Sequence {
	seq := &Sequence{
		segs:       []segRange{{Lo: 0, Hi: s.Count}},
		chunkElems: s.chunk(),
		workLen:    s.Count,
		copyOutSeg: -1,
	}
	seq.Rounds = ceilDiv(s.Count, seq.chunkElems)
	chainPos := mod(pos-s.Root-1, n) // root+1 first, root last
	isRoot := pos == s.Root
	seq.initCopyOwnSeg = initCopyWhole // everyone starts from its own send data
	if !isRoot {
		seq.useScratch = true
	}
	if n == 1 {
		return seq
	}
	switch {
	case chainPos == 0: // first in chain (root+1)
		seq.Actions = append(seq.Actions, Action{SendSeg: 0, RecvSeg: -1})
	case isRoot:
		seq.Actions = append(seq.Actions, Action{SendSeg: -1, RecvSeg: 0, Reduce: true})
	default:
		seq.Actions = append(seq.Actions, Action{SendSeg: 0, RecvSeg: 0, Reduce: true})
	}
	return seq
}
