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
// Every phase keeps the ring's invariants: all participants of
// a convoy run the same (action, round) schedule with per-action
// element bounds, so zero-count peers still exchange empty chunks and
// flow control stays uniform; the executor's (stage, round, step,
// phase) dynamic context makes any point preemptible and resumable.
//
// Degenerate cases are explicit: a single-node cluster yields only the
// intra stages (no leader ring — the direct exchange *is* the
// algorithm), and a single rank yields the same no-op copy sequence as
// the flat ring.

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

// HierSequenceFor builds the hierarchical sequence for the participant
// at ring position pos, given the node grouping. Spec validation must
// have passed and s.Algo must be AlgoHierarchical; executors over
// these sequences need the matching BuildHierFabricOn wiring. The all-to-all
// variants use the four-phase gather/ring/scatter schedule of this
// file; all-reduce, all-gather, and reduce-scatter use the two-level
// reduction schedules of hiercoll.go over the same wiring.
func (s Spec) HierSequenceFor(pos int, g NodeGrouping) *Sequence {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if s.Algo != AlgoHierarchical {
		panic(fmt.Sprintf("prim: HierSequenceFor on a %v spec", s.Algo))
	}
	switch s.Kind {
	case AllToAll, AllToAllv:
		return s.hierAllToAllSeq(pos, g)
	case AllReduce:
		return s.hierAllReduceSeq(pos, g)
	case AllGather:
		return s.hierAllGatherSeq(pos, g)
	case ReduceScatter:
		return s.hierReduceScatterSeq(pos, g)
	default:
		panic(fmt.Sprintf("prim: no hierarchical sequence for kind %v", s.Kind))
	}
}

// hierAllToAllSeq builds the hierarchical all-to-all(-v) sequence:
// intra-node direct exchange, pack/gather-to-leader, the flat ring
// all-to-all schedule between the leaders over per-node aggregates, and
// scatter-from-leader.
func (s Spec) hierAllToAllSeq(pos int, g NodeGrouping) *Sequence {
	n := s.N()
	if n == 1 {
		return noopCopySeq(s.count(0, 0), s.chunk())
	}
	a := g.NodeOf[pos]
	group := g.Members[a]
	m := len(group)
	k := g.local[pos]
	M := g.Nodes()
	leader := group[0]
	isLeader := k == 0
	chunk := s.chunk()

	// --- working-buffer layout ---
	var segs []segRange
	cur := 0
	addSeg := func(l int) int {
		segs = append(segs, segRange{Lo: cur, Hi: cur + l})
		cur += l
		return len(segs) - 1
	}
	// addSub registers a nested sub-range of an already-allocated
	// region without advancing the allocation cursor.
	addSub := func(lo, l int) int {
		segs = append(segs, segRange{Lo: lo, Hi: lo + l})
		return len(segs) - 1
	}

	// Own send blocks, in send-buffer layout (the init-copy prefix).
	own := make([]int, n)
	for j := 0; j < n; j++ {
		own[j] = addSeg(s.count(pos, j))
	}
	// Final blocks by origin, recv-buffer layout. Leaders read their
	// cross-node blocks straight from the inbound aggregates instead,
	// so their cross-node FIN slots are unused scratch.
	fin := make([]int, n)
	for o := 0; o < n; o++ {
		fin[o] = addSeg(s.count(o, pos))
	}

	// Leader-only staging: one contiguous aggregate per peer node, in
	// (member, destination) order on the way out and (origin member,
	// local member) order on the way in, with nested per-block
	// sub-segments so convoys can address individual blocks. The
	// aggregates are the leader ring's blocks: outbound by destination
	// node, inbound by origin node, then its two transit slots.
	var agg [][]int                     // agg[x][y]: cross-node aggregate sizes
	var lring []int                     // leader-ring block -> seg
	var goutSub, ginSub map[int][][]int // [node][member idx][peer idx] -> seg
	if isLeader && M > 1 {
		agg = make([][]int, M)
		for x := range agg {
			agg[x] = make([]int, M)
			for y := range agg[x] {
				if x == y {
					continue
				}
				for _, i := range g.Members[x] {
					for _, j := range g.Members[y] {
						agg[x][y] += s.count(i, j)
					}
				}
			}
		}
		lring = make([]int, 2*M+2)
		goutSub = make(map[int][][]int, M-1)
		ginSub = make(map[int][][]int, M-1)
		for _, b := range g.crossNodes(a) {
			lo := cur
			lring[b] = addSeg(agg[a][b])
			subs := make([][]int, m)
			off := lo
			for ii, i := range group {
				subs[ii] = make([]int, len(g.Members[b]))
				for jj, j := range g.Members[b] {
					subs[ii][jj] = addSub(off, s.count(i, j))
					off += s.count(i, j)
				}
			}
			goutSub[b] = subs
		}
		for _, x := range g.crossNodes(a) {
			lo := cur
			lring[M+x] = addSeg(agg[x][a])
			subs := make([][]int, len(g.Members[x]))
			off := lo
			for ii, i := range g.Members[x] {
				subs[ii] = make([]int, m)
				for jj, j := range group {
					subs[ii][jj] = addSub(off, s.count(i, j))
					off += s.count(i, j)
				}
			}
			ginSub[x] = subs
		}
	}

	// --- stages ---
	var stages []Stage

	// Intra-node direct exchange: one lockstep stage per ring offset
	// within the group; rounds padded to the offset's largest block so
	// every member stays step-matched (zero-count peers send empty
	// chunks, as in the flat ring).
	for d := 1; d < m; d++ {
		sp := group[(k+d)%m]
		rp := group[(k-d+m)%m]
		maxPair := 0
		for kk := 0; kk < m; kk++ {
			maxPair = max(maxPair, s.count(group[kk], group[(kk+d)%m]))
		}
		stages = append(stages, Stage{
			Label:  "intra",
			Rounds: ceilDiv(maxPair, chunk),
			Actions: []Action{{
				SendSeg: own[sp], SendElems: s.count(pos, sp), SendConn: g.peerIdx(pos, sp),
				RecvSeg: fin[rp], RecvElems: s.count(rp, pos), RecvConn: g.peerIdx(pos, rp),
			}},
		})
	}

	if M > 1 {
		// Leader packs its own cross-node blocks into the outbound
		// aggregates (local copies — no connector involved).
		if isLeader {
			var acts []Action
			for _, b := range g.crossNodes(a) {
				for jj, j := range g.Members[b] {
					if s.count(pos, j) == 0 {
						continue
					}
					acts = append(acts, Action{
						LocalCopy: true,
						SendSeg:   own[j], SendElems: s.count(pos, j),
						RecvSeg: goutSub[b][0][jj],
					})
				}
			}
			if len(acts) > 0 {
				stages = append(stages, Stage{Label: "pack", Rounds: 1, Actions: acts})
			}
		}
		// Gather-to-leader: one convoy stage per non-leader member, in
		// the canonical cross-node block order. Sender and leader build
		// mirrored action lists from the same matrix row, so per-
		// connector traffic matches action for action, chunk for chunk.
		for sIdx := 1; sIdx < m; sIdx++ {
			sender := group[sIdx]
			if pos != sender && !isLeader {
				continue
			}
			maxBlk := 0
			var acts []Action
			for _, b := range g.crossNodes(a) {
				for jj, j := range g.Members[b] {
					c := s.count(sender, j)
					maxBlk = max(maxBlk, c)
					if pos == sender {
						acts = append(acts, Action{
							SendSeg: own[j], SendElems: c, SendConn: g.peerIdx(pos, leader),
							RecvSeg: -1,
						})
					} else {
						acts = append(acts, Action{
							SendSeg: -1,
							RecvSeg: goutSub[b][sIdx][jj], RecvElems: c, RecvConn: g.peerIdx(pos, sender),
						})
					}
				}
			}
			stages = append(stages, Stage{Label: "gather", Rounds: ceilDiv(maxBlk, chunk), Actions: acts})
		}
		// Inter-leader ring: the flat all-to-all schedule over the M×M
		// aggregate matrix on the leader ring's endpoint.
		if isLeader {
			r := ring{place: a, n: M, blk: lring, conn: g.ringIdx(pos)}
			size := func(x, y int) int { return agg[x][y] }
			transit, moved := r.allToAllBounds(size)
			lring[2*M], lring[2*M+1] = addSeg(transit), addSeg(transit)
			stages = append(stages, Stage{Label: "inter-ring", Rounds: ceilDiv(moved, chunk), Actions: r.allToAll(size)})
		}
		// Scatter-from-leader: one convoy per non-leader member; the
		// leader sends each inbound cross-node block to its final
		// destination, which writes it into its FIN layout.
		for tIdx := 1; tIdx < m; tIdx++ {
			dst := group[tIdx]
			if pos != dst && !isLeader {
				continue
			}
			maxBlk := 0
			var acts []Action
			for _, x := range g.crossNodes(a) {
				for iIdx, i := range g.Members[x] {
					c := s.count(i, dst)
					maxBlk = max(maxBlk, c)
					if isLeader {
						acts = append(acts, Action{
							SendSeg: ginSub[x][iIdx][tIdx], SendElems: c, SendConn: g.peerIdx(pos, dst),
							RecvSeg: -1,
						})
					} else {
						acts = append(acts, Action{
							SendSeg: -1,
							RecvSeg: fin[i], RecvElems: c, RecvConn: g.peerIdx(pos, leader),
						})
					}
				}
			}
			stages = append(stages, Stage{Label: "scatter", Rounds: ceilDiv(maxBlk, chunk), Actions: acts})
		}
	}

	// Copy-out: origin blocks 0..n-1 in order. The self block comes
	// from the own area, same-node blocks from FIN (intra stage), and
	// cross-node blocks from FIN (non-leaders, scatter stage) or the
	// inbound aggregates (leaders).
	copyOut := make([]int, n)
	for o := 0; o < n; o++ {
		switch {
		case o == pos:
			copyOut[o] = own[pos]
		case isLeader && g.NodeOf[o] != a:
			copyOut[o] = ginSub[g.NodeOf[o]][g.local[o]][0]
		default:
			copyOut[o] = fin[o]
		}
	}

	return &Sequence{
		Stages:         stages,
		segs:           segs,
		chunkElems:     chunk,
		workLen:        cur,
		initCopyOwnSeg: initCopyPrefix,
		useScratch:     true,
		copyOut:        copyOut,
	}
}
