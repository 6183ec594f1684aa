package prim

// Hierarchical (topology-aware) reduction collectives: two-level
// schedules for all-reduce, all-gather and reduce-scatter over the wiring
// and the role-read parts of the hierarchical all-to-all (hier.go), whose
// invariants they keep. Only the leader ring touches RDMA, moving
// 2(M-1)·C, (M-1)·n·C and (M-1)·C elements respectively for M nodes —
// never more than the flat ring's RDMA traffic, strictly less whenever a
// node holds more than one rank. On one node a schedule is its mesh
// stages alone.

import "slices"

// hierAllReduceSeq builds node t's part of the two-level all-reduce.
// The working buffer is the user's recv buffer; every segment is an
// overlapping view of the natural [0, Count) layout, so no scratch or
// copy-out is needed.
func (s Spec) hierAllReduceSeq(t *tier) {
	C, l := s.Count, &t.p.lead
	// Share i, segment i, is member i's block (blk) of the intra-node
	// reduce-scatter's partition; share 0 is the longest.
	for i := range t.m {
		l.alloc(evenSeg(C, t.m, i).len())
	}
	whole := l.view(segRange{Lo: 0, Hi: C})
	l.blk, l.initCopyOwnSeg = t.q.hier.g.local, initCopyWhole // the working buffer is the recv buffer
	*t.memb = *l                                              // a member reads no leader-ring segments
	rounds := ceilDiv(l.segs[0].len(), t.chunk)
	intraRounds := func(int) int { return rounds }

	// Intra-node reduce-scatter: member k sends its *original* copy of
	// share k+d, and only share k is reduced into, so it ends node-wide.
	t.mesh("intra-rs", intraRounds, meshScatter)
	if t.nodes == 1 { // a mesh all-gather of the reduced shares
		t.mesh("intra-ag", intraRounds, meshGather)
		return
	}
	// Gather: every member's node-reduced share overwrites the leader's
	// (the rounds cover share 0, which never moves).
	var gather, bcast []move
	for i := 1; i < t.m; i++ {
		gather = append(gather, move{i, i})
		bcast = append(bcast, move{whole, whole})
	}
	t.convoy("gather", rounds, hop{op: opUp, moves: gather})
	// Inter-leader ring all-reduce over evenSegs(C, M) partials.
	inter := make([]int, t.nodes)
	for i := range inter {
		inter[i] = l.view(evenSeg(C, t.nodes, i))
	}
	t.p.ringStage("inter-ring", t.ring(schedAllReduce, inter), t.chunk)
	// Broadcast: the leader fans the reduced vector out to its members.
	t.convoy("bcast", ceilDiv(C, t.chunk), hop{op: opDown, moves: bcast})
}

// grouped allocates the leader's node-grouped staging: position p's
// block, size(p) long, is segment blk[p], node x's aggregate agg[x].
func (t *tier) grouped(size func(p int) int) (agg []int) {
	l := &t.p.lead
	l.blk, agg = make([]int, t.q.n), make([]int, t.nodes)
	for x, members := range t.q.hier.g.Members {
		lo := l.workLen
		for _, p := range members {
			l.blk[p] = l.alloc(size(p))
		}
		agg[x] = l.view(segRange{Lo: lo, Hi: l.workLen})
	}
	return agg
}

// hierAllGatherSeq builds node t's part of the two-level all-gather.
// Members (and every rank on a single node) work directly in the recv
// buffer's ring layout, block p segment p; a multi-node leader stages
// blocks in scratch grouped by node so each node's aggregate is one
// contiguous segment for the ragged inter-leader ring, then copies out
// in ring order.
func (s Spec) hierAllGatherSeq(t *tier) {
	g, C, n, memb := t.q.hier.g, s.Count, t.q.n, t.memb
	for range n {
		memb.alloc(C)
	}
	memb.initCopyOwnSeg = initCopyOwn
	t.p.lead = *memb
	rounds := ceilDiv(C, t.chunk)

	t.mesh("intra", func(int) int { return rounds }, meshGather)
	if t.nodes == 1 {
		return
	}
	// The leader stages the blocks node-grouped, and copies them out.
	l := &t.p.lead
	*l = role{initCopyOwnSeg: initCopyOwn, work: inScratch}
	agg := t.grouped(func(int) int { return C })
	l.copyOut = l.blk
	t.p.ringStage("inter-ring", t.ring(schedAllGather, agg), t.chunk)
	// Scatter: the leader forwards every cross-node block to each member.
	var moves []move
	for _, x := range g.crossNodes(t.node) {
		for _, i := range g.Members[x] {
			for range t.m - 1 {
				moves = append(moves, move{l.blk[i], i})
			}
		}
	}
	t.convoy("scatter", rounds, hop{op: opDown, moves: moves, across: true})
}

// hierReduceScatterSeq builds node t's part of the two-level
// reduce-scatter over the natural evenSegs(Count, N) output partition
// (position p's output is segment p, as in the flat ring).
func (s Spec) hierReduceScatterSeq(t *tier) {
	g, n, memb := t.q.hier.g, t.q.n, t.memb
	for p := range n {
		memb.alloc(evenSeg(s.Count, n, p).len())
	}
	memb.initCopyOwnSeg, memb.work, memb.ownOut = initCopyWhole, inScratch, true
	t.p.lead = *memb
	size := func(p int) int { return memb.segs[p].len() }
	rounds := ceilDiv(size(0), t.chunk) // segment 0 is the longest

	if t.nodes == 1 { // a direct mesh reduce-scatter
		t.mesh("intra-rs", func(int) int { return rounds }, meshScatter)
		return
	}

	// The leader also stages a node-grouped permutation of the vector in
	// [C, 2C), the convoys' and ring's segments (blk, agg), packing its
	// own contribution in with local copies.
	l := &t.p.lead
	l.initCopyOwnSeg = initCopyPrefix
	agg := t.grouped(size)
	permOrder := slices.Concat(g.Members...) // positions in node-grouped order
	var pack, gather, scatter []move
	for _, p := range permOrder {
		if size(p) > 0 {
			pack = append(pack, move{l.blk[p], p})
		}
	}
	t.convoy("pack", 1, hop{op: opPack, moves: pack})

	// Gather: every member's whole vector, reduced into the permutation.
	maxMember := size(t.group[0])
	for _, i := range t.group[1:] {
		for _, p := range permOrder {
			gather = append(gather, move{l.blk[p], p})
		}
		scatter = append(scatter, move{l.blk[i], i})
		maxMember = max(maxMember, size(i))
	}
	t.convoy("gather", rounds, hop{op: opUp, reduce: true, moves: gather})

	// The leader ring reduce-scatters the aggregates (node a ends holding
	// aggregate a); scatter returns each member its output segment.
	t.p.ringStage("inter-ring", t.ring(schedReduceScatter, agg), t.chunk)
	t.convoy("scatter", ceilDiv(maxMember, t.chunk), hop{op: opDown, moves: scatter})
}
