package prim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"dfccl/internal/topo"
)

// allToAll is the all-to-all hop schedule as a list, the reference a
// generated stage (ring.hop) is held to: every step in order, with the
// two transit slots' alternation kept as state instead of computed. Block
// (i→j), size(i, j) elements, travels mod(j-i, n) hops; distance st's hop
// h is step (st, h).
func (r ring) allToAll(acts []Action, size func(i, j int) int) []Action {
	n, p := r.n, r.place
	transit, last := 0, 0
	for st := 1; st < n; st++ {
		for h := 1; h <= st; h++ {
			so, ro := mod(p-h+1, n), mod(p-h, n) // origins of the blocks sent and received
			a := Action{
				SendSeg: r.seg(2*n + last), SendElems: size(so, mod(so+st, n)), SendConn: r.conn,
				RecvSeg: r.seg(n + ro), RecvElems: size(ro, mod(ro+st, n)), RecvConn: r.conn,
			}
			if h == 1 {
				a.SendSeg = r.seg(mod(p+st, n)) // inject the own block st hops ahead
			}
			if h < st {
				a.RecvSeg = r.seg(2*n + transit) // forwarded at the next step
				last, transit = transit, 1-transit
			}
			acts = append(acts, a)
		}
	}
	return acts
}

// sameActions reports whether st's actions at position pos are want,
// reading them in rng's shuffled order, as a context restored after a
// preemption reads the step it stopped at without the steps before it.
func sameActions(st *Stage, pos int, want []Action, rng *rand.Rand) error {
	if st.Len() != len(want) {
		return fmt.Errorf("%d actions, want %d", st.Len(), len(want))
	}
	order := make([]int, len(want))
	for k := range order {
		order[k] = k
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, k := range order {
		if got := st.Action(pos, k); got != want[k] {
			return fmt.Errorf("action %d = %+v, want %+v", k, got, want[k])
		}
	}
	return nil
}

// checkHops holds every all-to-all stage position pos reads of seq to
// the list allToAll makes from the same ring parameters at pos's place.
func checkHops(seq *Sequence, pos int, rng *rand.Rand) error {
	stages := seq.Stages(pos)
	for si := range stages {
		st := &stages[si]
		h := &st.ring
		if h.n == 0 || h.sched != schedHops {
			continue
		}
		want := ring{place: h.at(pos), n: h.n, blk: h.blk, conn: h.conn}.allToAll(nil, h.size)
		if err := sameActions(st, pos, want, rng); err != nil {
			return fmt.Errorf("stage %d %q: %v", si, st.Label, err)
		}
	}
	return nil
}

// a2avCounts is an n×n all-to-all-v matrix with entries 0–9 and, for
// n > 2, a zero row and a zero column.
func a2avCounts(rng *rand.Rand, n int) [][]int {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
		for j := range m[i] {
			m[i][j] = rng.Intn(10)
		}
	}
	if n > 2 {
		clear(m[rng.Intn(n)])
		col := rng.Intn(n)
		for _, row := range m {
			row[col] = 0
		}
	}
	return m
}

// TestHopsMatchList holds the flat all-to-all's generated stage, read
// from one plan at every place of n = 1…64 ranks, uniform and
// all-to-all-v, to the list the reference builder makes from the spec.
func TestHopsMatchList(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var want []Action
	for n := 1; n <= 64; n++ {
		ranks := rng.Perm(n)
		for _, spec := range []Spec{
			{Kind: AllToAll, Count: n % 4, ChunkElems: 3, Ranks: ranks},
			{Kind: AllToAllv, Counts: a2avCounts(rng, n), ChunkElems: 3, Ranks: ranks},
		} {
			seq := spec.SequenceFor(0)
			for pos := range n {
				st := &seq.Stages(pos)[0]
				want = ring{place: pos, n: n}.allToAll(want[:0], spec.count)
				if err := sameActions(st, pos, want, rng); err != nil {
					t.Fatalf("%v n=%d pos %d: %v", spec.Kind, n, pos, err)
				}
				if got := seq.NumPrimitives(pos); got != len(want)*st.Rounds {
					t.Fatalf("%v n=%d pos %d: %d primitives, want %d", spec.Kind, n, pos, got, len(want)*st.Rounds)
				}
			}
		}
	}
}

// TestHierHopsMatchList holds every leader's inter-ring stage, on 2–8
// nodes of 1–3 GPUs in shuffled rank order, to the list the reference
// builder makes over the aggregate sizes summed here from the spec.
func TestHierHopsMatchList(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for nodes := 2; nodes <= 8; nodes++ {
		for gpus := 1; gpus <= 3; gpus++ {
			c := topo.NewCluster(nodes, gpus, topo.RTX3090, topo.DefaultLinks)
			ranks := rng.Perm(nodes * gpus)
			n := len(ranks)
			g := GroupByNode(c, ranks)
			for _, spec := range []Spec{
				{Kind: AllToAll, Algo: AlgoHierarchical, Count: 1 + n%3, ChunkElems: 4, Ranks: ranks},
				{Kind: AllToAllv, Algo: AlgoHierarchical, Counts: a2avCounts(rng, n), ChunkElems: 4, Ranks: ranks},
			} {
				M := g.Nodes()
				agg := func(x, y int) int {
					sum := 0
					for _, i := range g.Members[x] {
						for _, j := range g.Members[y] {
							sum += spec.count(i, j)
						}
					}
					return sum
				}
				seq := spec.HierSequenceFor(0, g)
				for x := range M {
					pos := g.Leader(x)
					var st *Stage
					stages := seq.Stages(pos)
					for i := range stages {
						if stages[i].Label == "inter-ring" {
							st = &stages[i]
						}
					}
					if st == nil {
						t.Fatalf("%v %d×%d leader %d: no inter-ring stage", spec.Kind, nodes, gpus, pos)
					}
					want := ring{place: x, n: M, blk: st.ring.blk, conn: g.ringIdx(pos)}.allToAll(nil, agg)
					if err := sameActions(st, pos, want, rng); err != nil {
						t.Fatalf("%v %d×%d leader %d: %v", spec.Kind, nodes, gpus, pos, err)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no inter-ring stage checked")
	}
}

// TestAllToAllPlanIsSmall holds each all-to-all's one plan, which
// every position reads, to a budget: the uniform 256-rank all-to-all's
// is O(n), not the n(n-1)/2 hops (about 2 MiB), and within 64 KiB; the
// all-to-all-v's, a copy of its count matrix it computes the segments
// from, holds at most what its 256 per-rank plans held before plans were
// shared (2 983 088 bytes, measured then).
func TestAllToAllPlanIsSmall(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		spec   Spec
		budget uint64
	}{
		{Spec{Kind: AllToAll, Count: 4, Ranks: rng.Perm(n)}, 64 << 10},
		{Spec{Kind: AllToAllv, Counts: a2avCounts(rng, n), Ranks: rng.Perm(n)}, 2983088},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.spec.SequenceFor(0)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.budget {
			t.Errorf("%v: a %d-rank plan allocates %d bytes, budget %d", tc.spec.Kind, n, got, tc.budget)
		}
	}
}

// TestHierPlanIsSmall holds each hierarchical plan of an 8×8 cluster, 64
// ranks in shuffled order, to a quarter of what it allocated while it
// kept one layout per position (467 488 bytes for the all-reduce,
// 2 437 152 for the all-gather, 2 473 696 for the reduce-scatter and
// 4 939 440 for the all-to-all, measured then): a node's part is built
// once, its members share one segment table, and no stage lists its
// actions per position.
func TestHierPlanIsSmall(t *testing.T) {
	c := topo.NewCluster(8, 8, topo.RTX3090, topo.DefaultLinks)
	ranks := rand.New(rand.NewSource(4)).Perm(64)
	g := GroupByNode(c, ranks)
	for _, tc := range []struct {
		spec   Spec
		budget uint64
	}{
		{Spec{Kind: AllReduce, Count: 1 << 16}, 467488 / 4},
		{Spec{Kind: AllGather, Count: 1 << 10}, 2437152 / 4},
		{Spec{Kind: ReduceScatter, Count: 1 << 16}, 2473696 / 4},
		{Spec{Kind: AllToAll, Count: 4}, 4939440 / 4},
	} {
		tc.spec.Algo, tc.spec.Ranks = AlgoHierarchical, ranks
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tc.spec.HierSequenceFor(0, g)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.budget {
			t.Errorf("%v: an 8×8 hierarchical plan allocates %d bytes, budget %d", tc.spec.Kind, got, tc.budget)
		}
	}
}

// TestFlatPlanIsSmall holds a flat plan to what it cost before the
// fields only a hierarchical plan reads (the node grouping, the members'
// tables, a member's stage count, the leader ring's node map) were
// carried by every plan: 416 bytes of Sequence, and 544 bytes an 8-rank
// ring all-reduce, all-gather or reduce-scatter plan allocates with its
// segments (512 and 640 while they were).
func TestFlatPlanIsSmall(t *testing.T) {
	if size := unsafe.Sizeof(Sequence{}); size > 416 {
		t.Errorf("a Sequence is %d bytes, budget 416", size)
	}
	const builds = 100
	for _, kind := range []Kind{AllReduce, AllGather, ReduceScatter} {
		spec := Spec{Kind: kind, Count: 1 << 16, Ranks: []int{0, 1, 2, 3, 4, 5, 6, 7}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range builds {
			spec.SequenceFor(0)
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / builds; got > 544 {
			t.Errorf("%v: an 8-rank ring plan allocates %d bytes, budget 544", kind, got)
		}
	}
}
