package prim

import (
	"fmt"
	"math/rand"
	"testing"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

func hierSpec(counts [][]int, chunk int) Spec {
	s := vSpec(counts, chunk)
	s.Algo = AlgoHierarchical
	return s
}

// runHier executes a hierarchical spec to completion on the given
// cluster (ranks may be any subset/order of the cluster's GPUs),
// returning recv buffers and the executors (for byte accounting).
func runHier(t *testing.T, c *topo.Cluster, spec Spec, fill func(pos int, b *mem.Buffer)) ([]*mem.Buffer, []*Executor) {
	t.Helper()
	e := sim.NewEngine()
	fab := buildHier(new(mem.Chunks), nil, fabric.Unshared(c), spec.Ranks, "th")
	n := spec.N()
	recvBufs := make([]*mem.Buffer, n)
	execs := make([]*Executor, n)
	for i := 0; i < n; i++ {
		sendCount, recvCount := BufferCountsFor(spec, i)
		s := mem.NewBuffer(spec.Type, sendCount)
		recvBufs[i] = mem.NewBuffer(spec.Type, recvCount)
		fill(i, s)
		execs[i] = fab.ExecutorFor(c, spec, i, s, recvBufs[i])
		x := execs[i]
		e.Spawn("rank", func(p *sim.Process) {
			for x.StepOnce(p, -1) != Done {
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("hierarchical %v: %v", spec.Kind, err)
	}
	return recvBufs, execs
}

// runRingRef runs the same count matrix over the flat ring for
// reference, returning recv buffers and executors.
func runRingRef(t *testing.T, c *topo.Cluster, spec Spec, fill func(pos int, b *mem.Buffer)) ([]*mem.Buffer, []*Executor) {
	t.Helper()
	ringSpec := spec
	ringSpec.Algo = AlgoRing
	e := sim.NewEngine()
	ring := BuildRingOn(fabric.Unshared(c), ringSpec, "tr")
	n := ringSpec.N()
	recvBufs := make([]*mem.Buffer, n)
	execs := make([]*Executor, n)
	for i := 0; i < n; i++ {
		sendCount, recvCount := BufferCountsFor(ringSpec, i)
		s := mem.NewBuffer(ringSpec.Type, sendCount)
		recvBufs[i] = mem.NewBuffer(ringSpec.Type, recvCount)
		fill(i, s)
		execs[i] = ring.ExecutorFor(c, ringSpec, i, s, recvBufs[i])
		x := execs[i]
		e.Spawn("rank", func(p *sim.Process) {
			for x.StepOnce(p, -1) != Done {
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("ring reference %v: %v", ringSpec.Kind, err)
	}
	return recvBufs, execs
}

func sumBytesBy(execs []*Executor) TransportBytes {
	var total TransportBytes
	for _, x := range execs {
		total.Add(x.BytesSentBy)
	}
	return total
}

func TestGroupByNode(t *testing.T) {
	c := topo.MultiNode3090(2) // machines of 8 GPUs: ranks 0-7 and 8-15
	// Interleaved, non-contiguous rank order: groups follow machines,
	// numbered by first appearance.
	g := GroupByNode(c, []int{9, 2, 12, 0, 5})
	if g.Nodes() != 2 {
		t.Fatalf("nodes = %d, want 2", g.Nodes())
	}
	wantNode := []int{0, 1, 0, 1, 1} // rank 9,12 on machine 1 (node 0); 2,0,5 on machine 0 (node 1)
	for pos, want := range wantNode {
		if g.NodeOf[pos] != want {
			t.Fatalf("NodeOf[%d] = %d, want %d", pos, g.NodeOf[pos], want)
		}
	}
	if g.Leader(0) != 0 || g.Leader(1) != 1 {
		t.Fatalf("leaders = %d,%d, want positions 0,1", g.Leader(0), g.Leader(1))
	}
	if !g.IsLeader(0) || g.IsLeader(2) {
		t.Fatal("IsLeader misidentifies leaders")
	}
}

func TestHierAllToAllvCorrectness(t *testing.T) {
	cases := []struct {
		name    string
		cluster *topo.Cluster
		ranks   []int
		counts  [][]int
		chunk   int
	}{
		{"single-rank", topo.Server3090(1), []int{0}, [][]int{{7}}, 3},
		{"single-node-4", topo.Server3090(4), nil, [][]int{
			{2, 9, 0, 4}, {5, 1, 3, 0}, {0, 7, 2, 6}, {1, 0, 8, 3}}, 4},
		{"two-nodes-even", topo.NewCluster(2, 2, topo.RTX3090, topo.DefaultLinks), nil, [][]int{
			{1, 8, 3, 5}, {4, 0, 6, 2}, {2, 7, 5, 1}, {9, 3, 0, 4}}, 3},
		{"two-nodes-ragged", topo.NewCluster(2, 4, topo.RTX3090, topo.DefaultLinks), []int{0, 1, 2, 4, 5}, [][]int{
			// 3 ranks on machine 0, 2 on machine 1: not divisible.
			{1, 2, 3, 4, 5}, {6, 0, 8, 9, 1}, {2, 30, 4, 5, 6}, {7, 8, 0, 1, 2}, {3, 4, 5, 6, 7}}, 8},
		{"interleaved-ranks", topo.NewCluster(2, 4, topo.RTX3090, topo.DefaultLinks), []int{0, 4, 1, 5}, [][]int{
			// ring order alternates machines; grouping must follow
			// machines, not ring adjacency.
			{3, 1, 4, 1}, {5, 9, 2, 6}, {5, 3, 5, 8}, {9, 7, 9, 3}}, 2},
		{"zero-count-peers", topo.NewCluster(2, 2, topo.RTX3090, topo.DefaultLinks), nil, [][]int{
			{0, 5, 0, 2}, {3, 0, 0, 0}, {0, 0, 0, 7}, {1, 0, 4, 0}}, 2},
		{"silent-rank", topo.NewCluster(3, 1, topo.RTX3090, topo.DefaultLinks), nil, [][]int{
			{0, 0, 0}, {6, 0, 4}, {3, 9, 0}}, 5},
		{"deaf-rank", topo.NewCluster(2, 2, topo.RTX3090, topo.DefaultLinks), []int{0, 1, 2}, [][]int{
			{0, 4, 2}, {0, 0, 5}, {0, 3, 0}}, 5},
		{"all-zero", topo.NewCluster(2, 1, topo.RTX3090, topo.DefaultLinks), nil, [][]int{{0, 0}, {0, 0}}, 4},
		{"three-nodes-ragged", topo.NewCluster(3, 3, topo.RTX3090, topo.DefaultLinks), []int{0, 1, 2, 3, 4, 6}, func() [][]int {
			m := make([][]int, 6)
			for i := range m {
				m[i] = make([]int, 6)
				for j := range m[i] {
					m[i][j] = (i*5 + j*3) % 11
				}
			}
			return m
		}(), 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ranks := tc.ranks
			if ranks == nil {
				ranks = make([]int, len(tc.counts))
				for i := range ranks {
					ranks[i] = i
				}
			}
			spec := Spec{Kind: AllToAllv, Type: mem.Float64, Ranks: ranks, Counts: tc.counts, ChunkElems: tc.chunk, Algo: AlgoHierarchical}
			recv, hexecs := runHier(t, tc.cluster, spec, func(pos int, b *mem.Buffer) {
				fillV(tc.counts, pos, b)
			})
			for pos := range tc.counts {
				checkV(t, tc.counts, pos, recv[pos])
			}
			// The per-case bandwidth half of the equivalence harness:
			// hierarchical never moves more RDMA bytes than the ring.
			_, rexecs := runRingRef(t, tc.cluster, spec, func(pos int, b *mem.Buffer) {
				fillV(tc.counts, pos, b)
			})
			hb, rb := sumBytesBy(hexecs), sumBytesBy(rexecs)
			if hb.RDMA > rb.RDMA {
				t.Fatalf("hierarchical RDMA bytes %d > ring %d", hb.RDMA, rb.RDMA)
			}
		})
	}
}

func TestHierAllToAllUniform(t *testing.T) {
	// The uniform AllToAll kind routes through the same hierarchical
	// builder (uniform count matrix).
	c := topo.NewCluster(2, 2, topo.RTX3090, topo.DefaultLinks)
	const count, n = 10, 4
	spec := Spec{Kind: AllToAll, Count: count, Type: mem.Float64, Ranks: []int{0, 1, 2, 3}, ChunkElems: 4, Algo: AlgoHierarchical}
	recv, _ := runHier(t, c, spec, func(pos int, b *mem.Buffer) {
		for dst := 0; dst < n; dst++ {
			for i := 0; i < count; i++ {
				b.SetFloat64(dst*count+i, vSendVal(pos, dst, i))
			}
		}
	})
	for pos := 0; pos < n; pos++ {
		for src := 0; src < n; src++ {
			for i := 0; i < count; i++ {
				if got, want := recv[pos].Float64At(src*count+i), vSendVal(src, pos, i); got != want {
					t.Fatalf("pos %d block from %d elem %d = %v, want %v", pos, src, i, got, want)
				}
			}
		}
	}
}

// TestHierRingEquivalenceProperty is the cross-algorithm equivalence
// harness: seeded-random count matrices over random cluster shapes and
// rank subsets must produce bit-identical outputs under ring and
// hierarchical, with hierarchical RDMA bytes ≤ ring RDMA bytes in
// every case.
func TestHierRingEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for trial := 0; trial < 60; trial++ {
		machines := 1 + rng.Intn(3)
		perNode := 1 + rng.Intn(4)
		cluster := topo.NewCluster(machines, perNode, topo.RTX3090, topo.DefaultLinks)
		total := machines * perNode
		n := 1 + rng.Intn(total)
		ranks := rng.Perm(total)[:n] // random subset in random (interleaved) order
		counts := make([][]int, n)
		for i := range counts {
			counts[i] = make([]int, n)
			for j := range counts[i] {
				counts[i][j] = rng.Intn(20)
			}
		}
		// Inject structured degeneracies: zero rows (silent ranks) and
		// zero columns (deaf ranks).
		if n > 1 && rng.Intn(3) == 0 {
			row := rng.Intn(n)
			for j := range counts[row] {
				counts[row][j] = 0
			}
		}
		if n > 1 && rng.Intn(3) == 0 {
			col := rng.Intn(n)
			for i := range counts {
				counts[i][col] = 0
			}
		}
		chunk := 1 + rng.Intn(8)
		name := fmt.Sprintf("trial%d-m%d-g%d-n%d-c%d", trial, machines, perNode, n, chunk)
		spec := Spec{Kind: AllToAllv, Type: mem.Float64, Ranks: ranks, Counts: counts, ChunkElems: chunk, Algo: AlgoHierarchical}
		fill := func(pos int, b *mem.Buffer) { fillV(counts, pos, b) }
		hierRecv, hexecs := runHier(t, cluster, spec, fill)
		ringRecv, rexecs := runRingRef(t, cluster, spec, fill)
		for pos := 0; pos < n; pos++ {
			hb, rb := hierRecv[pos].Bytes(), ringRecv[pos].Bytes()
			if len(hb) != len(rb) {
				t.Fatalf("%s: pos %d recv sizes differ: %d vs %d", name, pos, len(hb), len(rb))
			}
			for i := range hb {
				if hb[i] != rb[i] {
					t.Fatalf("%s: pos %d outputs diverge at byte %d", name, pos, i)
				}
			}
			checkV(t, counts, pos, hierRecv[pos])
		}
		hby, rby := sumBytesBy(hexecs), sumBytesBy(rexecs)
		if hby.RDMA > rby.RDMA {
			t.Fatalf("%s: hierarchical RDMA bytes %d > ring %d", name, hby.RDMA, rby.RDMA)
		}
		requirePeers(t, name, cluster, spec)
	}
}

// TestHierRDMABytesStrictlyLower pins the acceptance claim: on a
// ≥2-node cluster with multi-rank nodes and a dense matrix, the
// hierarchical exchange moves strictly fewer RDMA bytes than the flat
// ring, and exactly the leader-ring hop-weighted total.
func TestHierRDMABytesStrictlyLower(t *testing.T) {
	cluster := topo.NewCluster(2, 2, topo.RTX3090, topo.DefaultLinks)
	counts := [][]int{
		{3, 24, 1, 7},
		{7, 2, 19, 5},
		{6, 11, 4, 23},
		{16, 9, 6, 2},
	}
	spec := Spec{Kind: AllToAllv, Type: mem.Float64, Ranks: []int{0, 1, 2, 3}, Counts: counts, ChunkElems: 8, Algo: AlgoHierarchical}
	fill := func(pos int, b *mem.Buffer) { fillV(counts, pos, b) }
	_, hexecs := runHier(t, cluster, spec, fill)
	_, rexecs := runRingRef(t, cluster, spec, fill)
	hby, rby := sumBytesBy(hexecs), sumBytesBy(rexecs)
	if hby.RDMA == 0 || hby.RDMA >= rby.RDMA {
		t.Fatalf("RDMA bytes: hierarchical=%d ring=%d; want 0 < hierarchical < ring", hby.RDMA, rby.RDMA)
	}
	// Exact: with 2 nodes {0,1} and {2,3}, each cross aggregate crosses
	// one leader hop; RDMA bytes = sum of cross-node entries × 8.
	cross := 0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if (i < 2) != (j < 2) {
				cross += counts[i][j]
			}
		}
	}
	if want := cross * 8; hby.RDMA != want {
		t.Fatalf("hierarchical RDMA bytes = %d, want %d", hby.RDMA, want)
	}
}

// TestHierSingleNodeDegenerate pins the single-node degeneration: a
// hierarchical all-to-all on one node is the direct intra-node
// exchange — one stage per ring offset, no pack/gather/leader-ring/
// scatter stages — and its wire traffic is single-hop (every block
// travels exactly once, no RDMA, no store-and-forward re-sends).
func TestHierSingleNodeDegenerate(t *testing.T) {
	counts := [][]int{
		{2, 9, 33, 4},
		{5, 1, 3, 7},
		{8, 7, 2, 6},
		{1, 5, 8, 3},
	}
	spec := hierSpec(counts, 8)
	g := GroupByNode(topo.Server3090(4), spec.Ranks)
	for pos := 0; pos < 4; pos++ {
		seq := spec.HierSequenceFor(pos, g)
		if got, want := seq.NumStages(pos), 3; got != want {
			t.Fatalf("pos %d: NumStages = %d, want %d (one intra stage per offset)", pos, got, want)
		}
		for _, st := range seq.Stages(pos) {
			if st.Label != "intra" {
				t.Fatalf("pos %d: unexpected %q stage on a single-node cluster", pos, st.Label)
			}
		}
		// Rounds per offset d = ceil(max block at that offset / chunk):
		// offsets carry max blocks 9, 33, 8 under chunk 8 -> 2+5+1.
		if got, want := seq.TotalRounds(pos), 8; got != want {
			t.Fatalf("pos %d: TotalRounds = %d, want %d", pos, got, want)
		}
	}
	recv, execs := runHier(t, topo.Server3090(4), spec, func(pos int, b *mem.Buffer) {
		fillV(counts, pos, b)
	})
	for pos := range counts {
		checkV(t, counts, pos, recv[pos])
	}
	by := sumBytesBy(execs)
	if by.RDMA != 0 {
		t.Fatalf("single-node hierarchical moved %d RDMA bytes, want 0", by.RDMA)
	}
	// Direct exchange: every off-diagonal block moves exactly one hop.
	direct := 0
	for i := range counts {
		for j := range counts[i] {
			if i != j {
				direct += counts[i][j]
			}
		}
	}
	total := 0
	for _, x := range execs {
		total += x.BytesSentBy.Total()
	}
	if want := direct * 8; total != want {
		t.Fatalf("single-node hierarchical bytes sent = %d, want single-hop %d", total, want)
	}
}

// TestHierPreemptAndResume is the preempt/resume table for the
// hierarchical sequence: a designated rank runs with a tiny spin
// budget and backs off whenever stuck, while its peers run slowly. The
// exchange must deliver every block intact, and the recorded stall
// stages must cover the phases the case targets — gather-to-leader,
// mid-inter-ring, and scatter (plus intra for non-leaders).
func TestHierPreemptAndResume(t *testing.T) {
	counts := [][]int{
		{4, 40, 2, 9, 17, 5},
		{9, 1, 33, 6, 2, 28},
		{3, 12, 3, 28, 40, 1},
		{17, 8, 5, 8, 9, 33},
		{25, 0, 31, 4, 2, 7},
		{6, 29, 3, 35, 12, 9},
	}
	cases := []struct {
		name        string
		preemptPos  int
		wantStalled []string
	}{
		// Position 0 is node 0's leader: it gathers, rides the
		// inter-leader ring, and scatters.
		{"leader", 0, []string{"gather", "inter-ring", "scatter"}},
		// Position 4 is a non-leader on node 1: it stalls against the
		// lockstep intra exchange and the scatter convoy.
		{"non-leader", 4, []string{"intra", "scatter"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := topo.NewCluster(2, 3, topo.RTX3090, topo.DefaultLinks)
			spec := hierSpec(counts, 4)
			fab := buildHier(new(mem.Chunks), nil, fabric.Unshared(c), spec.Ranks, "tp")
			n := spec.N()
			recvs := make([]*mem.Buffer, n)
			execs := make([]*Executor, n)
			for i := 0; i < n; i++ {
				sendCount, recvCount := BufferCountsFor(spec, i)
				s := mem.NewBuffer(mem.Float64, sendCount)
				recvs[i] = mem.NewBuffer(mem.Float64, recvCount)
				fillV(counts, i, s)
				execs[i] = fab.ExecutorFor(c, spec, i, s, recvs[i])
			}
			stalled := map[string]bool{}
			e := sim.NewEngine()
			px := execs[tc.preemptPos]
			e.Spawn("preemptible", func(p *sim.Process) {
				for {
					switch px.StepOnce(p, 2*sim.Microsecond) {
					case Done:
						return
					case Stuck:
						stalled[px.Seq.Stages(px.Pos)[px.Stage].Label] = true
						p.Sleep(40 * sim.Microsecond)
					}
				}
			})
			for i := 0; i < n; i++ {
				if i == tc.preemptPos {
					continue
				}
				x := execs[i]
				e.Spawn("slow", func(p *sim.Process) {
					for {
						if x.StepOnce(p, -1) == Done {
							return
						}
						p.Sleep(15 * sim.Microsecond)
					}
				})
			}
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if px.SpinAborts == 0 {
				t.Fatal("preemptible rank never stalled; test exercised nothing")
			}
			for _, want := range tc.wantStalled {
				if !stalled[want] {
					t.Errorf("no stall recorded in the %q phase (stalled: %v)", want, stalled)
				}
			}
			for pos := 0; pos < n; pos++ {
				checkV(t, counts, pos, recvs[pos])
			}
		})
	}
}

func TestHierValidate(t *testing.T) {
	// Hierarchical serves the all-to-all variants and the reduction
	// collectives; the rooted chain kinds reject it, and unknown
	// algorithm values reject everywhere. AlgoAuto validates on every
	// kind (it resolves before a sequence is built).
	bad := []Spec{
		{Kind: Reduce, Count: 8, Type: mem.Float64, Op: mem.Sum, Ranks: []int{0, 1}, Algo: AlgoHierarchical},
		{Kind: Broadcast, Count: 8, Type: mem.Float64, Ranks: []int{0, 1}, Algo: AlgoHierarchical},
		{Kind: AllToAll, Count: 8, Type: mem.Float64, Ranks: []int{0, 1}, Algo: Algorithm(99)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %v on %v", i, s.Algo, s.Kind)
		}
	}
	good := []Spec{
		hierSpec([][]int{{0, 3}, {2, 0}}, 4),
		{Kind: AllReduce, Count: 8, Type: mem.Float64, Op: mem.Sum, Ranks: []int{0, 1}, Algo: AlgoHierarchical},
		{Kind: AllGather, Count: 8, Type: mem.Float64, Ranks: []int{0, 1}, Algo: AlgoHierarchical},
		{Kind: ReduceScatter, Count: 8, Type: mem.Float64, Op: mem.Sum, Ranks: []int{0, 1}, Algo: AlgoHierarchical},
		{Kind: Broadcast, Count: 8, Type: mem.Float64, Ranks: []int{0, 1}, Algo: AlgoAuto},
		{Kind: AllReduce, Count: 8, Type: mem.Float64, Op: mem.Sum, Ranks: []int{0, 1}, Algo: AlgoAuto},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("case %d: valid %v %v spec rejected: %v", i, s.Algo, s.Kind, err)
		}
	}
	// Same must distinguish algorithms (re-registration safety).
	ring := vSpec([][]int{{0, 3}, {2, 0}}, 4)
	if ring.Same(good[0]) {
		t.Error("ring and hierarchical specs are the Same")
	}
	// An unresolved AlgoAuto must never reach a sequence builder.
	auto := Spec{Kind: AllReduce, Count: 8, Type: mem.Float64, Op: mem.Sum, Ranks: []int{0, 1}, Algo: AlgoAuto}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SequenceFor built a sequence from an unresolved AlgoAuto spec")
			}
		}()
		auto.SequenceFor(0)
	}()
}
