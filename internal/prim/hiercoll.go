package prim

// Hierarchical (topology-aware) reduction collectives: two-level
// schedules for all-reduce, all-gather, and reduce-scatter over the
// same NodeGrouping and BuildHierFabricOn wiring as the hierarchical all-to-all
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

// maxSegLen returns the largest element length among the ranges.
func maxSegLen(rs []segRange) int {
	max := 0
	for _, r := range rs {
		if r.len() > max {
			max = r.len()
		}
	}
	return max
}

// hierAllReduceSeq builds the two-level all-reduce. The working buffer
// is the user's recv buffer; every segment is an overlapping view of
// the natural [0, Count) layout, so no scratch or copy-out is needed.
func (s Spec) hierAllReduceSeq(pos int, g NodeGrouping) *Sequence {
	n := s.N()
	if n == 1 {
		return noopCopySeq(s.Count, s.chunk())
	}
	chunk := s.chunk()
	C := s.Count
	a := g.NodeOf[pos]
	group := g.Members[a]
	m := len(group)
	k := g.local[pos]
	M := g.Nodes()
	isLeader := k == 0

	var segs []segRange
	addView := func(r segRange) int {
		segs = append(segs, r)
		return len(segs) - 1
	}
	// Node-local shares: the intra-node reduce-scatter's partition.
	memberView := evenSegs(C, m)
	member := make([]int, m)
	for i, r := range memberView {
		member[i] = addView(r)
	}
	whole := addView(segRange{Lo: 0, Hi: C})

	var stages []Stage
	// Intra-node reduce-scatter: one direct-exchange stage per mesh
	// offset. Member k always sends its *original* copy of share
	// (k+d) — only share k is ever reduced into — so after all offsets
	// share k holds the node-wide reduction.
	intraRounds := ceilDiv(maxSegLen(memberView), chunk)
	for d := 1; d < m; d++ {
		sk := (k + d) % m
		rp := group[(k-d+m)%m]
		stages = append(stages, Stage{
			Label:  "intra-rs",
			Rounds: intraRounds,
			Actions: []Action{{
				SendSeg: member[sk], SendElems: memberView[sk].len(), SendConn: g.peerIdx(pos, group[sk]),
				RecvSeg: member[k], RecvElems: memberView[k].len(), RecvConn: g.peerIdx(pos, rp),
				Reduce: true,
			}},
		})
	}

	if M > 1 {
		// Gather: every member hands its node-reduced share to the
		// leader (overwrite — the leader's contribution is already in
		// it), assembling the full node partial at the leader.
		if m > 1 {
			if isLeader {
				var acts []Action
				for sIdx := 1; sIdx < m; sIdx++ {
					acts = append(acts, Action{
						SendSeg: -1,
						RecvSeg: member[sIdx], RecvElems: memberView[sIdx].len(), RecvConn: g.peerIdx(pos, group[sIdx]),
					})
				}
				stages = append(stages, Stage{Label: "gather", Rounds: intraRounds, Actions: acts})
			} else {
				stages = append(stages, Stage{Label: "gather", Rounds: intraRounds, Actions: []Action{{
					SendSeg: member[k], SendElems: memberView[k].len(), SendConn: g.peerIdx(pos, group[0]),
					RecvSeg: -1,
				}}})
			}
		}
		// Inter-leader ring all-reduce over evenSegs(C, M) partials: the
		// flat all-reduce schedule on the leader ring's endpoint, the
		// only phase that touches RDMA.
		if isLeader {
			inter := make([]int, M)
			for i, r := range evenSegs(C, M) {
				inter[i] = addView(r)
			}
			r := ring{place: a, n: M, blk: inter, conn: g.ringIdx(pos), segs: segs}
			stages = append(stages, Stage{Label: "inter-ring", Rounds: r.rounds(chunk), Actions: r.allReduce()})
		}
		// Broadcast: the leader fans the fully reduced vector out to
		// its members.
		if m > 1 {
			bRounds := ceilDiv(C, chunk)
			if isLeader {
				var acts []Action
				for tIdx := 1; tIdx < m; tIdx++ {
					acts = append(acts, Action{
						SendSeg: whole, SendElems: C, SendConn: g.peerIdx(pos, group[tIdx]),
						RecvSeg: -1,
					})
				}
				stages = append(stages, Stage{Label: "bcast", Rounds: bRounds, Actions: acts})
			} else {
				stages = append(stages, Stage{Label: "bcast", Rounds: bRounds, Actions: []Action{{
					SendSeg: -1,
					RecvSeg: whole, RecvElems: C, RecvConn: g.peerIdx(pos, group[0]),
				}}})
			}
		}
	} else {
		// Single node: mesh all-gather of the reduced shares — member k
		// fans its (final) share k out while collecting the others.
		for d := 1; d < m; d++ {
			fk := (k - d + m) % m
			stages = append(stages, Stage{
				Label:  "intra-ag",
				Rounds: intraRounds,
				Actions: []Action{{
					SendSeg: member[k], SendElems: memberView[k].len(), SendConn: g.peerIdx(pos, group[(k+d)%m]),
					RecvSeg: member[fk], RecvElems: memberView[fk].len(), RecvConn: g.peerIdx(pos, group[fk]),
				}},
			})
		}
	}

	return &Sequence{
		Stages:         stages,
		segs:           segs,
		chunkElems:     chunk,
		workLen:        C,
		initCopyOwnSeg: initCopyWhole,
	}
}

// hierAllGatherSeq builds the two-level all-gather. Non-leaders (and
// every rank on a single node) work directly in the recv buffer's ring
// layout; a multi-node leader stages blocks in scratch grouped by node
// so each node's aggregate is one contiguous segment for the ragged
// inter-leader ring, then copies out in ring order.
func (s Spec) hierAllGatherSeq(pos int, g NodeGrouping) *Sequence {
	n := s.N()
	if n == 1 {
		return noopCopySeq(s.Count, s.chunk())
	}
	chunk := s.chunk()
	C := s.Count
	a := g.NodeOf[pos]
	group := g.Members[a]
	m := len(group)
	k := g.local[pos]
	M := g.Nodes()
	leaderLayout := g.IsLeader(pos) && M > 1

	var segs []segRange
	blkOf := make([]int, n) // seg index of ring position p's block
	agg := make([]int, M)   // leader layout: node x's contiguous aggregate
	if leaderLayout {
		cur := 0
		for x := 0; x < M; x++ {
			lo := cur
			for _, p := range g.Members[x] {
				segs = append(segs, segRange{Lo: cur, Hi: cur + C})
				blkOf[p] = len(segs) - 1
				cur += C
			}
			segs = append(segs, segRange{Lo: lo, Hi: cur})
			agg[x] = len(segs) - 1
		}
	} else {
		for p, r := range evenSegsFixed(C, n) {
			segs = append(segs, r)
			blkOf[p] = p
		}
	}

	var stages []Stage
	// Intra-node mesh exchange of the per-rank blocks.
	for d := 1; d < m; d++ {
		fp := group[(k-d+m)%m]
		stages = append(stages, Stage{
			Label:  "intra",
			Rounds: ceilDiv(C, chunk),
			Actions: []Action{{
				SendSeg: blkOf[pos], SendElems: C, SendConn: g.peerIdx(pos, group[(k+d)%m]),
				RecvSeg: blkOf[fp], RecvElems: C, RecvConn: g.peerIdx(pos, fp),
			}},
		})
	}

	if M > 1 {
		// Ring all-gather of per-node aggregates between the leaders:
		// the flat all-gather schedule on the leader ring's endpoint.
		if leaderLayout {
			r := ring{place: a, n: M, blk: agg, conn: g.ringIdx(pos), segs: segs}
			stages = append(stages, Stage{Label: "inter-ring", Rounds: r.rounds(chunk), Actions: r.allGather()})
		}
		// Scatter: the leader forwards every cross-node block to each
		// of its members, in the canonical cross-node order.
		if m > 1 {
			var acts []Action
			for _, x := range g.crossNodes(a) {
				for _, i := range g.Members[x] {
					if leaderLayout {
						for tIdx := 1; tIdx < m; tIdx++ {
							acts = append(acts, Action{
								SendSeg: blkOf[i], SendElems: C, SendConn: g.peerIdx(pos, group[tIdx]),
								RecvSeg: -1,
							})
						}
					} else {
						acts = append(acts, Action{
							SendSeg: -1,
							RecvSeg: blkOf[i], RecvElems: C, RecvConn: g.peerIdx(pos, group[0]),
						})
					}
				}
			}
			stages = append(stages, Stage{Label: "scatter", Rounds: ceilDiv(C, chunk), Actions: acts})
		}
	}

	seq := &Sequence{
		Stages:         stages,
		segs:           segs,
		chunkElems:     chunk,
		workLen:        n * C,
		initCopyOwnSeg: blkOf[pos],
	}
	if leaderLayout {
		seq.useScratch = true
		seq.copyOut = blkOf
	}
	return seq
}

// hierReduceScatterSeq builds the two-level reduce-scatter over the
// natural evenSegs(Count, N) output partition (position p's output is
// segment p, as in the flat ring).
func (s Spec) hierReduceScatterSeq(pos int, g NodeGrouping) *Sequence {
	n := s.N()
	if n == 1 {
		return noopCopySeq(s.Count, s.chunk())
	}
	chunk := s.chunk()
	C := s.Count
	a := g.NodeOf[pos]
	group := g.Members[a]
	m := len(group)
	k := g.local[pos]
	M := g.Nodes()
	isLeader := k == 0
	gview := evenSegs(C, n)
	maxG := maxSegLen(gview)

	var segs []segRange
	nat := make([]int, n) // natural-layout view of position p's segment
	for p, r := range gview {
		segs = append(segs, r)
		nat[p] = p
	}

	var stages []Stage
	if M == 1 {
		// Single node: direct mesh exchange — member k sends its
		// original copy of each peer's output segment and reduces the
		// peers' copies of its own.
		rounds := ceilDiv(maxG, chunk)
		for d := 1; d < m; d++ {
			sp := group[(k+d)%m]
			rp := group[(k-d+m)%m]
			stages = append(stages, Stage{
				Label:  "intra-rs",
				Rounds: rounds,
				Actions: []Action{{
					SendSeg: nat[sp], SendElems: gview[sp].len(), SendConn: g.peerIdx(pos, sp),
					RecvSeg: nat[pos], RecvElems: gview[pos].len(), RecvConn: g.peerIdx(pos, rp),
					Reduce: true,
				}},
			})
		}
		return &Sequence{
			Stages:         stages,
			segs:           segs,
			chunkElems:     chunk,
			workLen:        C,
			initCopyOwnSeg: initCopyWhole,
			useScratch:     true,
			copyOut:        nat[pos : pos+1],
		}
	}

	// Multi-node. Leaders additionally stage a node-grouped permutation
	// of the full vector in [C, 2C): node x's members' segments made
	// contiguous so the inter-leader ring reduce-scatters whole per-node
	// aggregates.
	perm := make([]int, n) // leader layout: permuted view of position p's segment
	agg := make([]int, M)  // leader layout: node x's contiguous aggregate
	var permOrder []int    // positions in permuted (node-grouped) order
	for x := 0; x < M; x++ {
		permOrder = append(permOrder, g.Members[x]...)
	}
	if isLeader {
		cur := C
		for x := 0; x < M; x++ {
			lo := cur
			for _, p := range g.Members[x] {
				segs = append(segs, segRange{Lo: cur, Hi: cur + gview[p].len()})
				perm[p] = len(segs) - 1
				cur += gview[p].len()
			}
			segs = append(segs, segRange{Lo: lo, Hi: cur})
			agg[x] = len(segs) - 1
		}
		// Pack: stage the leader's own contribution into the permuted
		// layout with connector-free local copies.
		var acts []Action
		for _, p := range permOrder {
			if gview[p].len() == 0 {
				continue
			}
			acts = append(acts, Action{
				LocalCopy: true,
				SendSeg:   nat[p], SendElems: gview[p].len(),
				RecvSeg: perm[p],
			})
		}
		if len(acts) > 0 {
			stages = append(stages, Stage{Label: "pack", Rounds: 1, Actions: acts})
		}
	}

	// Gather: every member funnels its whole vector to the leader, in
	// the leader's permuted order, reduced into the permuted layout.
	if m > 1 {
		rounds := ceilDiv(maxG, chunk)
		if isLeader {
			var acts []Action
			for sIdx := 1; sIdx < m; sIdx++ {
				for _, p := range permOrder {
					acts = append(acts, Action{
						SendSeg: -1,
						RecvSeg: perm[p], RecvElems: gview[p].len(), RecvConn: g.peerIdx(pos, group[sIdx]),
						Reduce: true,
					})
				}
			}
			stages = append(stages, Stage{Label: "gather", Rounds: rounds, Actions: acts})
		} else {
			var acts []Action
			for _, p := range permOrder {
				acts = append(acts, Action{
					SendSeg: nat[p], SendElems: gview[p].len(), SendConn: g.peerIdx(pos, group[0]),
					RecvSeg: -1,
				})
			}
			stages = append(stages, Stage{Label: "gather", Rounds: rounds, Actions: acts})
		}
	}

	// Inter-leader ring reduce-scatter over the per-node aggregates: the
	// flat reduce-scatter schedule (node a finishes holding aggregate a)
	// on the leader ring's endpoint.
	if isLeader {
		r := ring{place: a, n: M, blk: agg, conn: g.ringIdx(pos), segs: segs}
		stages = append(stages, Stage{Label: "inter-ring", Rounds: r.rounds(chunk), Actions: r.reduceScatter()})
	}

	// Scatter: the leader returns each member's fully reduced output
	// segment from the permuted layout.
	if m > 1 {
		maxMember := 0
		for _, p := range group {
			if l := gview[p].len(); l > maxMember {
				maxMember = l
			}
		}
		rounds := ceilDiv(maxMember, chunk)
		if isLeader {
			var acts []Action
			for tIdx := 1; tIdx < m; tIdx++ {
				t := group[tIdx]
				acts = append(acts, Action{
					SendSeg: perm[t], SendElems: gview[t].len(), SendConn: g.peerIdx(pos, t),
					RecvSeg: -1,
				})
			}
			stages = append(stages, Stage{Label: "scatter", Rounds: rounds, Actions: acts})
		} else {
			stages = append(stages, Stage{Label: "scatter", Rounds: rounds, Actions: []Action{{
				SendSeg: -1,
				RecvSeg: nat[pos], RecvElems: gview[pos].len(), RecvConn: g.peerIdx(pos, group[0]),
			}}})
		}
	}

	seq := &Sequence{
		Stages:     stages,
		segs:       segs,
		chunkElems: chunk,
		useScratch: true,
		copyOut:    nat[pos : pos+1],
	}
	if isLeader {
		seq.workLen = 2 * C
		seq.initCopyOwnSeg = initCopyPrefix
		seq.copyOut = perm[pos : pos+1]
	} else {
		seq.workLen = C
		seq.initCopyOwnSeg = initCopyWhole
	}
	return seq
}
