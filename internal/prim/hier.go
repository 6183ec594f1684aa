package prim

// Hierarchical (topology-aware) all-to-all: the flat ring treats every
// hop as equal, but the cluster is two-tiered — SHM inside a node,
// 56 Gb/s RDMA between nodes. AlgoHierarchical splits the exchange
// accordingly:
//
//  1. intra: same-node blocks move directly between the two GPUs over
//     per-pair SHM connectors, a lockstep offset schedule in the node;
//  2. pack/gather: every rank's cross-node blocks are gathered to its
//     node leader (which packs its own with local copies), one
//     contiguous aggregate per destination node;
//  3. inter-ring: the leaders run the flat ring's all-to-all over the
//     aggregates — the only RDMA phase; an aggregate (a→b) crosses
//     mod(b-a, M) leader hops instead of the full flat ring;
//  4. scatter: the receiving leader forwards each block to its final
//     same-node destination over SHM.
//
// A plan is one part per node, read by role: the leader runs every
// stage, a member the mesh stages and the convoys carrying its blocks.
// Both ends of each connector read one description — a hop inside a node,
// the ring value between the leaders — so they run the same (action,
// round) schedule with per-action element bounds, zero-count peers still
// exchange empty chunks and flow control stays uniform; the executor's
// (stage, round, step, phase) context makes any point preemptible. A
// single node yields only the intra stages, a single rank the flat ring's
// no-op copy.

import (
	"fmt"

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

// hierSeq builds the hierarchical plan's parts, one per node, of two or
// more positions (Spec.build).
func (s Spec) hierSeq(q *Sequence) {
	g, M := q.hier.g, q.hier.g.Nodes()
	var agg []int // the all-to-all's cross-node aggregate sizes, M×M
	if !s.Kind.InPlace() && M > 1 {
		agg = make([]int, M*M)
		for pos, x := range g.NodeOf {
			for j, y := range g.NodeOf {
				if x != y {
					agg[x*M+y] += s.count(pos, j)
				}
			}
		}
	}
	q.parts, q.hier.memb = make([]part, M), make([]role, M)
	for a := range q.parts {
		t := &tier{q: q, p: &q.parts[a], memb: &q.hier.memb[a], node: a, group: g.Members[a], m: len(g.Members[a]), nodes: M, chunk: q.chunkElems}
		switch s.Kind {
		case AllToAll, AllToAllv:
			s.hierAllToAllSeq(t, agg)
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

// tier builds node's part p of a hierarchical plan and memb, its
// members' table: group is its members (leader first), m their count and
// nodes the node count.
type tier struct {
	q               *Sequence
	p               *part
	memb            *role
	node            int
	group           []int
	m, nodes, chunk int
}

// alloc appends a segment of l elements at the end of the working buffer.
func (r *role) alloc(l int) int {
	r.workLen += l
	return r.view(segRange{Lo: r.workLen - l, Hi: r.workLen})
}

// view registers a segment over already-allocated elements.
func (r *role) view(sr segRange) int {
	r.segs = append(r.segs, sr)
	return len(r.segs) - 1
}

// ring is the leader ring running sc over the node aggregates blk, read
// at the leader's node's place, on its ring endpoint, with the segments
// the leader has allocated so far.
func (t *tier) ring(sc sched, blk []int) ring {
	leader := t.group[0]
	return ring{sched: sc, place: leader - t.node, n: t.nodes, blk: blk, conn: t.q.hier.g.ringIdx(leader), segs: t.p.lead.segs}
}

// mesh adds the direct-exchange stages d = 1..m-1, at which member k
// exchanges with members k+d and k-d as op says, for rounds(d) rounds.
func (t *tier) mesh(label string, rounds func(d int) int, op hopOp) {
	for d := 1; d < t.m; d++ {
		t.p.addStage(label, rounds(d)).hop = &hop{q: t.q, node: t.node, op: op, d: d}
	}
}

// convoy adds a stage moving h.moves between the leader and its members
// (or within the leader, opPack). The leader takes every move in order;
// the m-1 members each take a row of per moves (hop.at), unless h names
// the one member whose moves they all are (base, per). A convoy with no
// moves is no stage.
func (t *tier) convoy(label string, rounds int, h hop) {
	if len(h.moves) == 0 {
		return
	}
	if h.base == 0 {
		h.base, h.per = 1, len(h.moves)/max(t.m-1, 1)
	}
	h.q, h.node = t.q, t.node
	t.p.addStage(label, rounds).hop = &h
}

// hopOp is what a hop stage does: at a mesh offset d each member k sends
// to member k+d and receives from k-d — meshScatter sends block k+d and
// folds k-d's copy of its own block in (a reduce-scatter), meshGather
// sends its own block and receives block k-d, meshBlocks sends its block
// for k+d and receives k-d's for it (the all-to-all); opPack is the
// leader's local copies, opUp and opDown a convoy to the leader and from
// it.
type hopOp uint8

const (
	meshScatter hopOp = iota
	meshGather
	meshBlocks
	opPack
	opUp
	opDown
)

// hop is a stage within one node of a hierarchical plan, which every
// position of the node reads by its role, computing its actions from its
// member index k: a mesh stage's peers, endpoints and blocks from k, the
// offset d and its role's table (role.blk), a convoy's from the one
// move list both ends read.
type hop struct {
	q    *Sequence
	node int
	op   hopOp
	d    int
	// reduce: an up convoy's leader folds the received chunks in.
	reduce bool
	// moves are a pack's or convoy's, in the order the leader takes them;
	// member base+r takes row r of them, per moves (member-major, or, if
	// across, member-minor: every rows-th move from r).
	moves     []move
	base, per int
	across    bool
	// member is whose actions Stage.Len counts: 0 (the leader) in a plan,
	// k in the copies Sequence.Stages gives member k.
	member int
}

// move is one block of a convoy: the segment that holds it at the leader
// and the one that holds it at the member (a pack copies the leader's own
// block memb into lead).
type move struct{ lead, memb int }

// has reports whether member k > 0 runs the stage: every mesh offset,
// and the convoys that carry its blocks (a nil hop is a leader ring's).
func (h *hop) has(k int) bool {
	return h != nil && (h.op < opPack || h.op > opPack && k >= h.base && k < h.base+len(h.moves)/h.per)
}

// count returns the stage's action count per round at member k.
func (h *hop) count(k int) int {
	switch {
	case h.op < opPack:
		return 1
	case k == 0:
		return len(h.moves)
	}
	return h.per
}

// at returns the segment member k moves as its convoy action i, and the
// endpoint it moves it on: the leader takes every move in order, a member
// its row.
func (h *hop) at(k, i int) (seg, conn int) {
	rows := len(h.moves) / h.per
	switch {
	case k > 0 && h.across:
		return h.moves[i*rows+k-h.base].memb, 0
	case k > 0:
		return h.moves[(k-h.base)*h.per+i].memb, 0
	case h.across:
		return h.moves[i].lead, h.base + i%rows - 1
	}
	return h.moves[i].lead, h.base + i/h.per - 1
}

// action sets *a to the stage's action i at position pos; each half is
// as long as its segment at pos.
func (h *hop) action(pos, i int, a *Action) {
	q := h.q
	_, r, k := q.read(pos)
	elems := func(seg int) int { return q.seg(r, pos, seg).len() }
	switch h.op {
	case opPack:
		mv := h.moves[i]
		*a = Action{LocalCopy: true, SendSeg: mv.memb, SendElems: elems(mv.memb), RecvSeg: mv.lead}
	case opUp, opDown:
		seg, conn := h.at(k, i)
		if (h.op == opUp) == (k == 0) {
			*a = Action{SendSeg: -1, RecvSeg: seg, RecvElems: elems(seg), RecvConn: conn, Reduce: h.reduce}
		} else {
			*a = Action{SendSeg: seg, SendElems: elems(seg), SendConn: conn, RecvSeg: -1}
		}
	default:
		g := &q.hier.g
		group := g.Members[h.node]
		m := len(group)
		to, from := group[(k+h.d)%m], group[(k-h.d+m)%m]
		send, recv := blockSeg(r.blk, to), blockSeg(r.blk, pos)
		switch h.op {
		case meshGather:
			send, recv = blockSeg(r.blk, pos), blockSeg(r.blk, from)
		case meshBlocks:
			send, recv = to, q.n+from
		}
		*a = Action{SendSeg: send, SendElems: elems(send), SendConn: g.peerIdx(pos, to),
			RecvSeg: recv, RecvElems: elems(recv), RecvConn: g.peerIdx(pos, from), Reduce: h.op == meshScatter}
	}
}

// hierAllToAllSeq builds node t's part of the hierarchical all-to-all(-v)
// sequence: intra-node direct exchange, pack/gather-to-leader, the flat
// ring all-to-all schedule between the leaders over per-node aggregates
// (agg, M×M), and scatter-from-leader.
func (s Spec) hierAllToAllSeq(t *tier, agg []int) {
	g, lead := t.q.hier.g, &t.p.lead
	n, a, M, leader := t.q.n, t.node, t.nodes, t.group[0]

	// Segment j is the own block to position j, read in place from the
	// send buffer, segment n+o the final block from position o, received
	// in place in the recv buffer: an all-to-all-v member computes its own
	// (countedSeg). A leader's cross-node final blocks stay in its
	// inbound aggregates until the copy-out.
	*t.memb = role{initCopyOwnSeg: initCopyInPlace, work: inScratch, inPlace: n, ownOut: true}
	if s.Kind == AllToAll {
		t.memb.segs = s.blocksInPlace(make([]segRange, 0, 2*n), leader)
	}
	*lead = *t.memb

	// Intra-node direct exchange, one lockstep stage per offset, its
	// rounds padded to the offset's largest block (zero-count peers send
	// empty chunks, as in the flat ring).
	t.mesh("intra", func(d int) int {
		maxPair := 0
		for kk, i := range t.group {
			maxPair = max(maxPair, s.count(i, t.group[(kk+d)%t.m]))
		}
		return ceilDiv(maxPair, t.chunk)
	}, meshBlocks)
	if M == 1 {
		return
	}

	// The leader's staging, the whole scratch: the leader ring's blocks,
	// one aggregate to each other node, in (member, destination) order,
	// then one from each, in (origin, member) order, each followed by a
	// view per block for the convoys, then its two transit slots.
	lead.segs = s.blocksInPlace(make([]segRange, 0, 2*n+2*M+2*t.m*(n-t.m)), leader)
	lead.ownOut = false
	lring := make([]int, 2*M+2) // leader-ring block -> seg
	aggregate := func(size int, src, dst []int) int {
		seg := lead.alloc(size)
		off := lead.segs[seg].Lo
		for _, i := range src {
			for _, j := range dst {
				lead.view(segRange{Lo: off, Hi: off + s.count(i, j)})
				off += s.count(i, j)
			}
		}
		return seg
	}
	for _, b := range g.crossNodes(a) {
		lring[b] = aggregate(agg[a*M+b], t.group, g.Members[b])
	}
	for _, x := range g.crossNodes(a) {
		lring[M+x] = aggregate(agg[x*M+a], g.Members[x], t.group)
	}
	// out(b, ii, jj) views member ii's block to the jj-th member of node
	// b, in(x, jj, ii) the jj-th member of node x's block to member ii.
	out := func(b, ii, jj int) int { return lring[b] + 1 + ii*len(g.Members[b]) + jj }
	in := func(x, jj, ii int) int { return lring[M+x] + 1 + jj*t.m + ii }

	// Member ii's cross-node blocks, in canonical order: up[ii] into the
	// outbound aggregates (the leader packs its own nonzero ones with
	// local copies), down[ii] from the inbound ones into its recv buffer;
	// one convoy each way per member, covering its longest block.
	up, down := make([][]move, t.m), make([][]move, t.m)
	upLen, downLen := make([]int, t.m), make([]int, t.m)
	for _, x := range g.crossNodes(a) {
		for jj, j := range g.Members[x] {
			for ii, i := range t.group {
				if ii > 0 || s.count(i, j) > 0 {
					up[ii] = append(up[ii], move{out(x, ii, jj), j})
				}
				down[ii] = append(down[ii], move{in(x, jj, ii), n + j})
				upLen[ii], downLen[ii] = max(upLen[ii], s.count(i, j)), max(downLen[ii], s.count(j, i))
			}
		}
	}
	t.convoy("pack", 1, hop{op: opPack, moves: up[0]})
	for ii := 1; ii < t.m; ii++ {
		t.convoy("gather", ceilDiv(upLen[ii], t.chunk), hop{op: opUp, moves: up[ii], base: ii, per: len(up[ii])})
	}
	// The inter-leader ring: the flat all-to-all over the aggregates.
	h := t.ring(schedHops, lring)
	h.counts = agg
	transit := h.transit(a)
	lring[2*M], lring[2*M+1] = lead.alloc(transit), lead.alloc(transit)
	t.p.addStage("inter-ring", ceilDiv(h.moved(), t.chunk)).ring = h
	for ii := 1; ii < t.m; ii++ {
		t.convoy("scatter", ceilDiv(downLen[ii], t.chunk), hop{op: opDown, moves: down[ii], base: ii, per: len(down[ii])})
	}

	// The leader's copy-out: origin blocks 0..n-1, its own from the send
	// buffer and the cross-node ones from the inbound aggregates.
	lead.copyOut = make([]int, n)
	for o := range lead.copyOut {
		lead.copyOut[o] = n + o
		if x := g.NodeOf[o]; x != a {
			lead.copyOut[o] = in(x, g.local[o], 0)
		}
	}
	lead.copyOut[leader] = leader
}
