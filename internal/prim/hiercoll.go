package prim

// Hierarchical (topology-aware) reduction collectives: two-level
// schedules for all-reduce, all-gather, and reduce-scatter over the
// same NodeGrouping and hierarchical wiring as the hierarchical all-to-all
// (hier.go) — a full SHM mesh inside each node plus one unidirectional
// inter-leader RDMA ring.
//
//   - all-reduce:      intra-node reduce-scatter (direct mesh exchange
//     of node-local shares), gather of the node-reduced shares to the
//     leader, a flat ring all-reduce between the leaders over
//     inter-node partials (the only RDMA phase), and an intra-node
//     broadcast of the full result. On one node the gather/ring/bcast
//     tail degenerates to a mesh all-gather of the reduced shares.
//   - all-gather:      intra-node mesh exchange of the per-rank
//     blocks, a flat ring all-gather of per-node aggregates between
//     the leaders, and a scatter of the cross-node blocks from the
//     leader to its members. Leaders stage blocks node-grouped in
//     scratch so each node's aggregate is contiguous even when the
//     rank set interleaves nodes.
//   - reduce-scatter:  leaders stage the full vector in a node-grouped
//     permutation ("pack"), members funnel their whole contribution to
//     the leader which reduces it in ("gather"), the leaders run a
//     flat ring reduce-scatter over per-node aggregates, and each
//     member receives exactly its output segment back ("scatter"). On
//     one node the schedule is a direct mesh exchange of output
//     segments.
//
// Every schedule keeps the established invariants: all parties of a
// connector run matching (action, round) chunk schedules (shorter
// blocks exchange empty chunks so flow control stays uniform), every
// action carries explicit element bounds, and the executor's (stage,
// round, step, phase) dynamic context makes any point preemptible,
// resumable, and abort-checkable. The inter-leader phases move
// 2(M-1)·C, (M-1)·n·C, and (M-1)·C elements respectively for M nodes —
// never more than the flat ring's RDMA traffic, strictly less whenever
// a node holds more than one rank.

// hierAllReduceSeq builds the two-level all-reduce. The working buffer
// is the user's recv buffer; every segment is an overlapping view of
// the natural [0, Count) layout, so no scratch or copy-out is needed.
func (s Spec) hierAllReduceSeq(t *tier) {
	g, C := t.g, s.Count
	// Node-local shares: the intra-node reduce-scatter's partition.
	// Share 0 is the longest.
	member := make([]int, t.m)
	for i := range member {
		member[i] = t.alloc(evenSeg(C, t.m, i).len())
	}
	whole := t.view(segRange{Lo: 0, Hi: C})
	rounds := ceilDiv(t.segLen(member[0]), t.chunk)
	intraRounds := func(int) int { return rounds }

	// Intra-node reduce-scatter: member k always sends its *original*
	// copy of share (k+d) — only share k is ever reduced into — so after
	// all offsets share k holds the node-wide reduction.
	t.mesh("intra-rs", intraRounds, true, func(to, _ int) (int, int) { return member[g.local[to]], member[t.k] })
	t.q.initCopyOwnSeg = initCopyWhole // the working buffer is the recv buffer
	if t.nodes == 1 {
		// Single node: mesh all-gather of the reduced shares — member k
		// fans its (final) share k out while collecting the others.
		t.mesh("intra-ag", intraRounds, false, func(_, from int) (int, int) { return member[t.k], member[g.local[from]] })
		return
	}
	// Gather: every member hands its node-reduced share to the leader
	// (overwrite — the leader's contribution is already in it),
	// assembling the full node partial at the leader; the rounds cover
	// share 0, which never moves.
	var gather, bcast []move
	for i := 1; i < t.m; i++ {
		gather = append(gather, move{i, member[i]})
		bcast = append(bcast, move{i, whole})
	}
	t.convoy("gather", rounds, true, false, gather)
	// Inter-leader ring all-reduce over evenSegs(C, M) partials: the
	// flat all-reduce schedule on the leader ring's endpoint, the only
	// phase that touches RDMA.
	if t.k == 0 {
		inter := make([]int, t.nodes)
		for i := range inter {
			inter[i] = t.view(evenSeg(C, t.nodes, i))
		}
		t.q.ringStage("inter-ring", t.ring(schedAllReduce, inter), t.chunk)
	}
	// Broadcast: the leader fans the fully reduced vector out to its
	// members.
	t.convoy("bcast", ceilDiv(C, t.chunk), false, false, bcast)
}

// hierAllGatherSeq builds the two-level all-gather. Non-leaders (and
// every rank on a single node) work directly in the recv buffer's ring
// layout; a multi-node leader stages blocks in scratch grouped by node
// so each node's aggregate is one contiguous segment for the ragged
// inter-leader ring, then copies out in ring order.
func (s Spec) hierAllGatherSeq(t *tier) {
	g, pos, C := t.g, t.pos, s.Count
	leaderLayout := t.k == 0 && t.nodes > 1
	// blkOf[p] is the seg index of ring position p's block: the leader
	// layout's copy-out.
	blkOf := make([]int, s.N())
	agg := make([]int, t.nodes) // leader layout: node x's contiguous aggregate
	if leaderLayout {
		t.q.work = inScratch
		for x, members := range g.Members {
			lo := t.q.workLen
			for _, p := range members {
				blkOf[p] = t.alloc(C)
			}
			agg[x] = t.view(segRange{Lo: lo, Hi: t.q.workLen})
		}
	} else {
		for p := range blkOf {
			blkOf[p] = t.alloc(C)
		}
	}
	rounds := ceilDiv(C, t.chunk)

	// Intra-node mesh exchange of the per-rank blocks.
	t.mesh("intra", func(int) int { return rounds }, false, func(_, from int) (int, int) { return blkOf[pos], blkOf[from] })
	if t.nodes > 1 {
		// Ring all-gather of per-node aggregates between the leaders:
		// the flat all-gather schedule on the leader ring's endpoint.
		if leaderLayout {
			t.q.ringStage("inter-ring", t.ring(schedAllGather, agg), t.chunk)
		}
		// Scatter: the leader forwards every cross-node block to each of
		// its members, in the canonical cross-node order.
		var moves []move
		for _, x := range g.crossNodes(t.node) {
			for _, i := range g.Members[x] {
				for tIdx := 1; tIdx < t.m; tIdx++ {
					moves = append(moves, move{tIdx, blkOf[i]})
				}
			}
		}
		t.convoy("scatter", rounds, false, false, moves)
	}
	if leaderLayout {
		t.q.copyOut = blkOf
	}
	t.q.initCopyOwnSeg = blkOf[pos]
}

// hierReduceScatterSeq builds the two-level reduce-scatter over the
// natural evenSegs(Count, N) output partition (position p's output is
// segment p, as in the flat ring).
func (s Spec) hierReduceScatterSeq(t *tier) {
	g, pos, n, leader := t.g, t.pos, s.N(), t.k == 0
	t.q.work = inScratch
	// nat is the natural-layout view of position p's segment.
	nat := make([]int, n)
	for p := range nat {
		nat[p] = t.alloc(evenSeg(s.Count, n, p).len())
	}
	size := func(p int) int { return t.segLen(nat[p]) }
	rounds := ceilDiv(size(0), t.chunk) // segment 0 is the longest

	if t.nodes == 1 {
		// Single node: direct mesh exchange — member k sends its
		// original copy of each peer's output segment and reduces the
		// peers' copies of its own.
		t.mesh("intra-rs", func(int) int { return rounds }, true, func(to, _ int) (int, int) { return nat[to], nat[pos] })
		t.q.initCopyOwnSeg = initCopyWhole
		t.q.copyOut = []int{nat[pos]}
		return
	}

	// Multi-node. Leaders additionally stage a node-grouped permutation
	// of the full vector in [C, 2C): node x's members' segments made
	// contiguous so the inter-leader ring reduce-scatters whole per-node
	// aggregates. held is where this position keeps the segments it
	// moves in the convoys: the permuted layout on the leader, the
	// natural one on a member.
	perm := make([]int, n)      // leader layout: permuted view of position p's segment
	agg := make([]int, t.nodes) // leader layout: node x's contiguous aggregate
	var permOrder []int         // positions in permuted (node-grouped) order
	for _, members := range g.Members {
		permOrder = append(permOrder, members...)
	}
	held := nat
	if leader {
		held = perm
		for x, members := range g.Members {
			lo := t.q.workLen
			for _, p := range members {
				perm[p] = t.alloc(size(p))
			}
			agg[x] = t.view(segRange{Lo: lo, Hi: t.q.workLen})
		}
		// Pack: stage the leader's own contribution into the permuted
		// layout with connector-free local copies.
		st := t.q.stage("pack", 1)
		for _, p := range permOrder {
			if size(p) == 0 {
				continue
			}
			st.actions = append(st.actions, Action{
				LocalCopy: true,
				SendSeg:   nat[p], SendElems: size(p),
				RecvSeg: perm[p],
			})
		}
		t.q.dropEmpty()
	}

	// Gather: every member funnels its whole vector to the leader, in
	// the leader's permuted order, reduced into the permuted layout.
	var gather, scatter []move
	maxMember := size(t.group[0])
	for i := 1; i < t.m; i++ {
		for _, p := range permOrder {
			gather = append(gather, move{i, held[p]})
		}
		scatter = append(scatter, move{i, held[t.group[i]]})
		maxMember = max(maxMember, size(t.group[i]))
	}
	t.convoy("gather", rounds, true, true, gather)

	// Inter-leader ring reduce-scatter over the per-node aggregates: the
	// flat reduce-scatter schedule (node a finishes holding aggregate a)
	// on the leader ring's endpoint.
	if leader {
		t.q.ringStage("inter-ring", t.ring(schedReduceScatter, agg), t.chunk)
	}
	// Scatter: the leader returns each member's fully reduced output
	// segment from the permuted layout.
	t.convoy("scatter", ceilDiv(maxMember, t.chunk), false, false, scatter)
	t.q.initCopyOwnSeg = initCopyWhole
	if leader {
		t.q.initCopyOwnSeg = initCopyPrefix
	}
	t.q.copyOut = []int{held[pos]}
}
