package prim

// Hierarchical (topology-aware) all-to-all: the flat ring treats every
// hop as equal, but the cluster is two-tiered — SHM inside a node,
// 56 Gb/s RDMA between nodes. AlgoHierarchical splits the exchange
// accordingly:
//
//  1. intra:      same-node blocks move directly between the two GPUs
//                 over per-pair SHM connectors (one hop each), as a
//                 lockstep offset schedule within the node group;
//  2. pack/gather: every rank's cross-node blocks are gathered to its
//                 node leader (the leader packs its own with local
//                 copies), laid out as one contiguous aggregate per
//                 destination node;
//  3. inter-ring: the node leaders run the flat ring's all-to-all
//                 schedule over the aggregates — the only phase that
//                 touches RDMA, and an aggregate (a→b) crosses
//                 mod(b-a, M) leader hops instead of every block
//                 circumnavigating the full flat ring;
//  4. scatter:    the receiving leader forwards each block to its
//                 final same-node destination over SHM.
//
// Every phase keeps the ring's invariants: both ends of each connector
// are built from one description — a tier's mesh and convoy stages
// inside a node, the ring value between the leaders — so they run the
// same (action, round) schedule with per-action element bounds,
// zero-count peers still exchange empty chunks and flow control stays
// uniform; the executor's (stage, round, step, phase) dynamic context
// makes any point preemptible and resumable.
//
// Degenerate cases are explicit: a single-node cluster yields only the
// intra stages (no leader ring — the direct exchange *is* the
// algorithm), and a single rank yields the same no-op copy sequence as
// the flat ring.

import (
	"fmt"
	"slices"

	"dfccl/internal/topo"
)

// NodeGrouping maps a collective's ring positions onto cluster nodes:
// the node-local view the hierarchical algorithm schedules by.
type NodeGrouping struct {
	// NodeOf[pos] is the node index of ring position pos. Nodes are
	// numbered by first appearance in ring order, so the leader ring
	// follows the positions' ring order.
	NodeOf []int
	// Members[node] lists the ring positions on that node, in ring
	// order; Members[node][0] is the node's leader.
	Members [][]int
	// local[pos] is pos's index within Members[NodeOf[pos]].
	local []int
}

// GroupByNode derives the node grouping of a rank set on a cluster:
// positions whose global ranks share a machine share a node group.
func GroupByNode(c *topo.Cluster, ranks []int) NodeGrouping {
	g := NodeGrouping{NodeOf: make([]int, len(ranks)), local: make([]int, len(ranks))}
	byMachine := make(map[int]int)
	for pos, r := range ranks {
		m := c.GPUs[r].Machine
		node, ok := byMachine[m]
		if !ok {
			node = len(g.Members)
			byMachine[m] = node
			g.Members = append(g.Members, nil)
		}
		g.NodeOf[pos] = node
		g.local[pos] = len(g.Members[node])
		g.Members[node] = append(g.Members[node], pos)
	}
	return g
}

// Nodes returns the node count.
func (g NodeGrouping) Nodes() int { return len(g.Members) }

// Leader returns the leader position of a node (its first member in
// ring order).
func (g NodeGrouping) Leader(node int) int { return g.Members[node][0] }

// IsLeader reports whether pos is its node's leader.
func (g NodeGrouping) IsLeader(pos int) bool { return g.local[pos] == 0 }

// peerIdx is the endpoint index position pos uses to reach same-node
// peer, for both the send (Outs) and recv (Ins) sides: the peers in
// group order, skipping pos itself. A leader's leader-ring endpoints,
// when present, follow at index ringIdx.
func (g NodeGrouping) peerIdx(pos, peer int) int {
	i := g.local[peer]
	if i > g.local[pos] {
		i--
	}
	return i
}

// ringIdx is the leader-ring endpoint index of a leader position (the
// slot after its m-1 same-node peers).
func (g NodeGrouping) ringIdx(pos int) int {
	return len(g.Members[g.NodeOf[pos]]) - 1
}

// crossNodes returns the other nodes in the canonical convoy order all
// participants of node a agree on: a+1, a+2, ... wrapping around.
func (g NodeGrouping) crossNodes(a int) []int {
	M := g.Nodes()
	out := make([]int, 0, M-1)
	for d := 1; d < M; d++ {
		out = append(out, (a+d)%M)
	}
	return out
}

// HierSequenceFor returns the hierarchical plan of s's collective,
// given the node grouping, which the participant at ring position pos
// runs at its own position. Spec validation must have passed and s.Algo
// must be AlgoHierarchical; executors over these plans need the matching
// hierarchical wiring. The all-to-all variants use the four-phase
// gather/ring/scatter schedule of this file; all-reduce, all-gather, and
// reduce-scatter use the two-level reduction schedules of hiercoll.go
// over the same wiring.
func (s Spec) HierSequenceFor(pos int, g NodeGrouping) *Sequence {
	return s.build(g).has(pos)
}

// hierSeq builds the hierarchical plan's layouts, one per position, of
// two or more (Spec.build).
func (s Spec) hierSeq(q *Sequence, g NodeGrouping) {
	q.lays = make([]layout, q.n)
	for pos := range q.lays {
		a := g.NodeOf[pos]
		t := &tier{g: g, q: &q.lays[pos], pos: pos, node: a, group: g.Members[a], k: g.local[pos],
			m: len(g.Members[a]), nodes: g.Nodes(), chunk: s.chunk()}
		switch s.Kind {
		case AllToAll, AllToAllv:
			s.hierAllToAllSeq(t)
		case AllReduce:
			s.hierAllReduceSeq(t)
		case AllGather:
			s.hierAllGatherSeq(t)
		case ReduceScatter:
			s.hierReduceScatterSeq(t)
		default:
			panic(fmt.Sprintf("prim: no hierarchical sequence for kind %v", s.Kind))
		}
	}
}

// tier is one position's hierarchical layout under construction: its
// place in the node grouping and the layout it appends to, whose workLen
// is the allocation cursor. Its mesh and convoy stages are built from
// one description that every member of the node reads, so the two ends
// of each intra-node connector agree chunk for chunk by construction,
// as the ring value makes them agree on the leader ring.
type tier struct {
	g NodeGrouping
	q *layout
	// pos is the position, node its node, group the node's members
	// (leader first), k its index in group, m the member count and
	// nodes the node count.
	pos, node   int
	group       []int
	k, m, nodes int
	chunk       int
}

// alloc appends a segment of l elements at the end of the working buffer.
func (t *tier) alloc(l int) int {
	t.q.workLen += l
	return t.view(segRange{Lo: t.q.workLen - l, Hi: t.q.workLen})
}

// view registers a segment over already-allocated elements.
func (t *tier) view(r segRange) int {
	t.q.segs = append(t.q.segs, r)
	return len(t.q.segs) - 1
}

// segLen is the element length of segment seg.
func (t *tier) segLen(seg int) int { return t.q.segs[seg].len() }

// ring is the leader ring running sc, seen from this (leader) position,
// over the node aggregates blk. It reads block lengths from the segments
// allocated so far: a layout allocates none after its ring stage.
func (t *tier) ring(sc sched, blk []int) ring {
	return ring{sched: sc, pinned: true, place: t.node, n: t.nodes, blk: blk, conn: t.g.ringIdx(t.pos), segs: t.q.segs}
}

// mesh adds the direct-exchange stages d = 1..m-1: at offset d each
// member sends to member k+d and receives from member k-d. segs names
// the segments sent to position to and received from position from;
// each half is as long as its segment, and rounds(d) is the same on
// every member, so all of them stay step-matched.
func (t *tier) mesh(label string, rounds func(d int) int, reduce bool, segs func(to, from int) (send, recv int)) {
	for d := 1; d < t.m; d++ {
		to, from := t.group[(t.k+d)%t.m], t.group[(t.k-d+t.m)%t.m]
		send, recv := segs(to, from)
		st := t.q.stage(label, rounds(d))
		st.actions = append(st.actions, Action{
			SendSeg: send, SendElems: t.segLen(send), SendConn: t.g.peerIdx(t.pos, to),
			RecvSeg: recv, RecvElems: t.segLen(recv), RecvConn: t.g.peerIdx(t.pos, from),
			Reduce: reduce,
		})
	}
}

// move is one block of a convoy: the member index it travels from or to,
// and the segment that holds it at this position.
type move struct{ member, seg int }

// convoy adds one leader↔member stage: up, each member sends its blocks
// to the leader; down, the leader sends them to the members. The leader
// takes every move in order, a member only its own, and a position with
// no move gets no stage; each half is as long as its segment, and reduce
// folds received chunks in.
func (t *tier) convoy(label string, rounds int, up, reduce bool, moves []move) {
	st := t.q.stage(label, rounds)
	for _, mv := range moves {
		peer := t.group[0]
		if t.k == 0 {
			peer = t.group[mv.member]
		} else if mv.member != t.k {
			continue
		}
		a := Action{SendSeg: -1, RecvSeg: -1}
		if l, conn := t.segLen(mv.seg), t.g.peerIdx(t.pos, peer); up == (t.k == 0) {
			a.RecvSeg, a.RecvElems, a.RecvConn, a.Reduce = mv.seg, l, conn, reduce
		} else {
			a.SendSeg, a.SendElems, a.SendConn = mv.seg, l, conn
		}
		st.actions = append(st.actions, a)
	}
	t.q.dropEmpty()
}

// hierAllToAllSeq builds the hierarchical all-to-all(-v) sequence:
// intra-node direct exchange, pack/gather-to-leader, the flat ring
// all-to-all schedule between the leaders over per-node aggregates, and
// scatter-from-leader.
func (s Spec) hierAllToAllSeq(t *tier) {
	pos, g := t.pos, t.g
	n, a, M, leader := s.N(), t.node, t.nodes, t.k == 0

	// Segment j is the own block to position j, read in place from the
	// send buffer, and segment n+o the final block from position o,
	// received in place into the recv buffer. Leaders take their
	// cross-node final blocks from the inbound aggregates at the copy-out
	// instead, so no action writes their cross-node final segments.
	t.q.segs = s.blocksInPlace(t.q.segs, pos)
	t.q.initCopyOwnSeg, t.q.work, t.q.inPlace = initCopyInPlace, inScratch, n

	// Leader-only staging, the whole scratch (a member has none): one
	// contiguous aggregate per peer node, in (member, destination) order
	// on the way out and (origin member, local member) order on the way
	// in, with a view per block so convoys can address individual
	// blocks. The aggregates are the leader ring's blocks: outbound by
	// destination node, inbound by origin node, then its two transit
	// slots.
	var agg [][]int         // agg[x][y]: cross-node aggregate sizes
	var lring []int         // leader-ring block -> seg
	var gout, gin [][][]int // [node][member idx][peer idx] -> seg
	aggregate := func(size int, src, dst []int) (int, [][]int) {
		seg := t.alloc(size)
		off := t.q.segs[seg].Lo
		subs := make([][]int, len(src))
		for ii, i := range src {
			subs[ii] = make([]int, len(dst))
			for jj, j := range dst {
				subs[ii][jj] = t.view(segRange{Lo: off, Hi: off + s.count(i, j)})
				off += s.count(i, j)
			}
		}
		return seg, subs
	}
	if leader && M > 1 {
		agg = make([][]int, M)
		for x := range agg {
			agg[x] = make([]int, M)
			for y := range agg[x] {
				for _, i := range g.Members[x] {
					for _, j := range g.Members[y] {
						if x != y {
							agg[x][y] += s.count(i, j)
						}
					}
				}
			}
		}
		lring = make([]int, 2*M+2)
		gout, gin = make([][][]int, M), make([][][]int, M)
		for _, b := range g.crossNodes(a) {
			lring[b], gout[b] = aggregate(agg[a][b], t.group, g.Members[b])
		}
		for _, x := range g.crossNodes(a) {
			lring[M+x], gin[x] = aggregate(agg[x][a], g.Members[x], t.group)
		}
	}

	// Intra-node direct exchange: one lockstep stage per offset within
	// the group; rounds padded to the offset's largest block so every
	// member stays step-matched (zero-count peers send empty chunks, as
	// in the flat ring).
	t.mesh("intra", func(d int) int {
		maxPair := 0
		for kk, i := range t.group {
			maxPair = max(maxPair, s.count(i, t.group[(kk+d)%t.m]))
		}
		return ceilDiv(maxPair, t.chunk)
	}, false, func(to, from int) (int, int) { return to, n + from })

	if M > 1 {
		// Leader packs its own cross-node blocks into the outbound
		// aggregates (local copies — no connector involved).
		if leader {
			st := t.q.stage("pack", 1)
			for _, b := range g.crossNodes(a) {
				for jj, j := range g.Members[b] {
					if s.count(pos, j) == 0 {
						continue
					}
					st.actions = append(st.actions, Action{
						LocalCopy: true,
						SendSeg:   j, SendElems: s.count(pos, j),
						RecvSeg: gout[b][0][jj],
					})
				}
			}
			t.q.dropEmpty()
		}
		// Gather-to-leader: one convoy per non-leader member, in the
		// canonical cross-node block order.
		for sIdx := 1; sIdx < t.m; sIdx++ {
			maxBlk := 0
			var moves []move
			for _, b := range g.crossNodes(a) {
				for jj, j := range g.Members[b] {
					maxBlk = max(maxBlk, s.count(t.group[sIdx], j))
					seg := j
					if leader {
						seg = gout[b][sIdx][jj]
					}
					moves = append(moves, move{sIdx, seg})
				}
			}
			t.convoy("gather", ceilDiv(maxBlk, t.chunk), true, false, moves)
		}
		// Inter-leader ring: the flat all-to-all schedule over the M×M
		// aggregate matrix on the leader ring's endpoint.
		if leader {
			h := t.ring(schedHops, lring)
			h.counts = slices.Concat(agg...)
			transit := h.transit(a)
			lring[2*M], lring[2*M+1] = t.alloc(transit), t.alloc(transit)
			t.q.stage("inter-ring", ceilDiv(h.moved(), t.chunk)).ring = h
		}
		// Scatter-from-leader: one convoy per non-leader member; the
		// leader sends each inbound cross-node block to its final
		// destination, which receives it in place in its recv buffer.
		for tIdx := 1; tIdx < t.m; tIdx++ {
			maxBlk := 0
			var moves []move
			for _, x := range g.crossNodes(a) {
				for iIdx, i := range g.Members[x] {
					maxBlk = max(maxBlk, s.count(i, t.group[tIdx]))
					seg := n + i
					if leader {
						seg = gin[x][iIdx][tIdx]
					}
					moves = append(moves, move{tIdx, seg})
				}
			}
			t.convoy("scatter", ceilDiv(maxBlk, t.chunk), false, false, moves)
		}
	}

	// Copy-out: origin blocks 0..n-1 in order. The self block comes
	// from the send buffer and a leader's cross-node blocks from the
	// inbound aggregates; every other block (intra stage, and a
	// non-leader's scatter stage) is already in place in recv.
	copyOut := make([]int, 0, n)
	for o := 0; o < n; o++ {
		switch {
		case o == pos:
			copyOut = append(copyOut, pos)
		case leader && g.NodeOf[o] != a:
			copyOut = append(copyOut, gin[g.NodeOf[o]][g.local[o]][0])
		default:
			copyOut = append(copyOut, n+o)
		}
	}
	t.q.copyOut = copyOut
}
