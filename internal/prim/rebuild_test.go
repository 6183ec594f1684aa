package prim

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// plan is one participant's plan in rebuildCorpus: a spec, its wiring
// and a position.
type plan struct {
	spec Spec
	ws   *Wirings
	pos  int
}

func (p plan) String() string {
	return fmt.Sprintf("%v/%v n=%d chunk=%d count=%d pos=%d", p.spec.Kind, p.spec.Algo, p.spec.N(), p.spec.ChunkElems, p.spec.Count, p.pos)
}

// rebuildCorpus lists plans over a 2-node × 4-GPU cluster: all seven
// kinds on the ring and the hierarchical kinds, n ∈ {1, 2, 3, 4, 8} over
// ranks that alternate nodes, two chunk sizes (one at the first
// position, one at the last), and uneven all-to-all-v counts with
// zeros.
func rebuildCorpus(c *topo.Cluster) []plan {
	order := []int{0, 4, 1, 5, 2, 6, 3, 7}
	var plans []plan
	for _, n := range []int{1, 2, 3, 4, 8} {
		ranks := order[:n]
		counts := make([][]int, n)
		for i := range counts {
			counts[i] = make([]int, n)
			for j := range counts[i] {
				counts[i][j] = (3*i + 5*j + n) % 7
			}
		}
		for _, chunk := range []int{3, 16} {
			for kind := AllReduce; kind <= AllToAllv; kind++ {
				spec := Spec{Kind: kind, Count: 12 * n, Type: mem.Float32, Op: mem.Sum, Ranks: ranks, ChunkElems: chunk, Root: n - 1}
				if kind == AllToAllv {
					spec.Count, spec.Counts = 0, counts
				}
				for _, algo := range []Algorithm{AlgoRing, AlgoHierarchical} {
					spec.Algo = algo
					if spec.Validate() != nil {
						continue
					}
					pos := 0 // a hierarchical leader
					if chunk == 3 {
						pos = n - 1 // a member, for n > 2
					}
					plans = append(plans, plan{spec, NewWirings(new(mem.Chunks), nil, new(Plans), fabric.Unshared(c), "rebuild"), pos})
				}
			}
		}
	}
	return plans
}

// TestRebuildMatchesFresh holds the in-place rebuild, over every ordered
// pair (A, B) of the corpus, to a fresh build of B: A's used executor
// rebuilt as B's is B's new executor. It reads the very plan B's reads,
// and its scratch holds what a new one holds: zeroes, or, for a scratch
// the init copy overwrites whole, none or any bytes of the right length.
func TestRebuildMatchesFresh(t *testing.T) {
	c := topo.NewCluster(2, 4, topo.RTX3090, topo.DefaultLinks)
	plans := rebuildCorpus(c)
	if len(plans) < 100 {
		t.Fatalf("corpus has %d plans", len(plans))
	}
	fresh := make([]*Executor, len(plans))
	for i, b := range plans {
		fresh[i] = b.ws.ExecutorFor(c, b.spec, b.pos, nil, nil)
	}
	rebuilt := 0
	for _, a := range plans {
		for i, b := range plans {
			fresh := fresh[i]
			x := a.ws.ExecutorFor(c, a.spec, a.pos, mem.NewBuffer(mem.Float32, 1), nil)
			x.Stage, x.Round, x.Step, x.Phase, x.Initialized = 1, 2, 3, 1, true
			x.PrimsExecuted, x.SpinAborts, x.BytesSentBy = 4, 5, TransportBytes{7, 8, 9}
			x.AbortCheck, x.RecColl, x.Job = func() bool { return true }, 10, 11
			if x.Seq.work(a.pos) == inScratch && x.scratch == nil {
				x.scratch = mem.NewBuffer(a.spec.Type, x.Seq.workLen(a.pos)) // as the first run's init copy leaves it
			}
			if x.scratch != nil {
				for i := range x.scratch.Bytes() {
					x.scratch.Bytes()[i] = 0xff
				}
			}
			b.ws.Rebuild(x, c, b.spec, b.pos)
			if x.Seq != fresh.Seq {
				t.Fatalf("%v built over %v reads a plan of its own", b, a)
			}
			if x.scratch != nil && fresh.Seq.work(b.pos) == inScratch && !fresh.Spec.TimingOnly {
				rebuilt++
				switch {
				case fresh.scratch != nil && (x.scratch.Type != fresh.scratch.Type || !bytes.Equal(x.scratch.Bytes(), fresh.scratch.Bytes())):
					t.Fatalf("%v over %v: scratch %v %d bytes, want cleared %v %d bytes", b, a,
						x.scratch.Type, len(x.scratch.Bytes()), fresh.scratch.Type, len(fresh.scratch.Bytes()))
				case fresh.scratch == nil && (x.scratch.Type != b.spec.Type || x.scratch.Len() != fresh.Seq.workLen(b.pos)):
					t.Fatalf("%v over %v: scratch %v × %d, want %v × %d for the init copy", b, a,
						x.scratch.Type, x.scratch.Len(), b.spec.Type, fresh.Seq.workLen(b.pos))
				}
			}
			got, wantX := *x, *fresh
			got.Seq, got.scratch, wantX.Seq, wantX.scratch = nil, nil, nil, nil
			if !reflect.DeepEqual(got, wantX) {
				t.Fatalf("%v rebuilt over %v's used executor:\n got %+v\nwant %+v", b, a, got, wantX)
			}
		}
	}
	if rebuilt == 0 {
		t.Fatal("no pair rebuilt a scratch buffer")
	}
}

// render is plan q's listed rendering at every position.
func render(q *Sequence) string {
	var b strings.Builder
	for pos := range q.n {
		fmt.Fprintf(&b, "%d: %#v\n", pos, listed(q, pos))
	}
	return b.String()
}

// TestPlansAreNeverRewritten: a plan, once built, is read and never
// written. On one Wirings, every position's executors are built for a
// spec A, then — while they have not run yet, as an earlier launch's may
// still be running — for a spec B of another shape, then for A again;
// all of them run to Done with exact results. A's plan renders byte for
// byte as it did before B's plan was built and before anything ran;
// every position of a spec
// reads one plan; a reopen of the same shape reads the plan the wiring
// keeps, and one of another shape, or over a changed count matrix, a
// plan of its own.
func TestPlansAreNeverRewritten(t *testing.T) {
	c := topo.NewCluster(2, 4, topo.RTX3090, topo.DefaultLinks)
	ranks := []int{0, 4, 1, 5, 2, 6, 3, 7}
	coll := func(kind Kind, count int, algo Algorithm) Spec {
		return Spec{Kind: kind, Count: count, Type: mem.Float64, Op: mem.Sum, Ranks: ranks, ChunkElems: 5, Algo: algo}
	}
	countsA := [][]int{{0, 3, 1, 4, 1, 5, 9, 2}, {6, 5, 3, 5, 8, 9, 7, 9}, {3, 2, 3, 8, 4, 6, 2, 6}, {4, 3, 3, 8, 3, 2, 7, 9},
		{5, 0, 2, 8, 8, 4, 1, 9}, {7, 1, 6, 9, 3, 9, 9, 3}, {7, 5, 1, 0, 5, 8, 2, 0}, {9, 7, 4, 9, 4, 4, 5, 9}}
	countsB := [][]int{{2, 7, 1, 8, 2, 8, 1, 8}, {2, 8, 4, 5, 9, 0, 4, 5}, {2, 3, 5, 3, 6, 0, 2, 8}, {7, 4, 7, 1, 3, 5, 2, 6},
		{6, 2, 4, 9, 7, 7, 5, 7}, {2, 4, 7, 0, 9, 3, 6, 9}, {9, 9, 5, 9, 5, 7, 4, 9}, {6, 6, 9, 6, 7, 6, 2, 7}}
	for _, tc := range []struct{ a, b Spec }{
		{coll(AllReduce, 24, AlgoRing), coll(AllReduce, 40, AlgoRing)},
		{coll(ReduceScatter, 48, AlgoRing), coll(AllGather, 7, AlgoRing)},
		{coll(AllReduce, 24, AlgoHierarchical), coll(ReduceScatter, 32, AlgoHierarchical)},
		{coll(AllGather, 6, AlgoHierarchical), coll(AllGather, 9, AlgoHierarchical)},
		{vSpec(countsA, 4), vSpec(countsB, 4)},
		{hierSpec(countsA, 4), hierSpec(countsB, 4)},
	} {
		a, b := tc.a, tc.b
		a.Ranks, b.Ranks = ranks, ranks
		if a.Counts != nil { // this test changes it
			a.Counts = slices.Clone(a.Counts)
			for i := range a.Counts {
				a.Counts[i] = slices.Clone(a.Counts[i])
			}
		}
		name := fmt.Sprintf("%v/%v -> %v", a.Kind, a.Algo, b.Kind)
		ws := NewWirings(new(mem.Chunks), nil, new(Plans), fabric.Unshared(c), "immut")
		var runs [][]*Executor
		var recvs [][]*mem.Buffer
		open := func(spec Spec) *Sequence {
			execs := make([]*Executor, spec.N())
			bufs := make([]*mem.Buffer, spec.N())
			for pos := range execs {
				sendCount, recvCount := BufferCountsFor(spec, pos)
				send := mem.NewBuffer(spec.Type, sendCount)
				if spec.Kind == AllToAllv {
					fillV(spec.Counts, pos, send)
				} else {
					fillColl(pos, send)
				}
				bufs[pos] = mem.NewBuffer(spec.Type, recvCount)
				execs[pos] = ws.ExecutorFor(c, spec, pos, send, bufs[pos])
				if execs[pos].Seq != execs[0].Seq {
					t.Fatalf("%s: position %d of %v reads a plan of its own", name, pos, spec.Kind)
				}
			}
			runs, recvs = append(runs, execs), append(recvs, bufs)
			return execs[0].Seq
		}
		planA := open(a)
		before := render(planA)
		if again := open(a); again != planA {
			t.Fatalf("%s: a same-shape reopen built a plan of its own", name)
		}
		planB := open(b)
		if planB == planA {
			t.Fatalf("%s: B reads A's plan", name)
		}
		if open(a) == planA {
			t.Fatalf("%s: the wiring kept A's plan across B's", name)
		}
		for i, execs := range runs {
			e := sim.NewEngine()
			for _, x := range execs {
				e.Spawn("rank", func(p *sim.Process) {
					for x.StepOnce(p, -1) != Done {
					}
				})
			}
			if err := e.Run(); err != nil {
				t.Fatalf("%s: run %d: %v", name, i, err)
			}
			for pos, recv := range recvs[i] {
				switch spec := execs[0].Spec; {
				case spec.Kind != AllToAllv:
					checkColl(t, name, spec, pos, recv)
				case i == 2:
					checkV(t, countsB, pos, recv)
				default:
					checkV(t, countsA, pos, recv)
				}
			}
		}
		if a.Counts != nil {
			// Closed, a collective's count matrix is the caller's again: a
			// plan keeps a copy of its own, so the change shows in no plan,
			// and a reopen over the changed matrix gets a new one.
			planA = runs[3][0].Seq
			a.Counts[1][2]++
			if ws.ExecutorFor(c, a, 0, nil, nil).Seq == planA {
				t.Fatalf("%s: a reopen over a changed count matrix read the old plan", name)
			}
		}
		if after := render(runs[0][0].Seq); after != before {
			t.Fatalf("%s: A's plan changed:\nbefore %s\nafter  %s", name, before, after)
		}
	}
}

// TestPlansHoldWhatWiringsHold: Wirings sharing one Plans share the plan
// of a flat shape across communicators, and the registry holds a plan
// exactly while some wiring does — no more plans than wirings.
func TestPlansHoldWhatWiringsHold(t *testing.T) {
	c := topo.NewCluster(2, 4, topo.RTX3090, topo.DefaultLinks)
	plans := new(Plans)
	ws := []*Wirings{
		NewWirings(new(mem.Chunks), nil, plans, fabric.Unshared(c), "a"),
		NewWirings(new(mem.Chunks), nil, plans, fabric.Unshared(c), "b"),
	}
	a := Spec{Kind: AllReduce, Count: 24, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 4, 1, 5}}
	b := Spec{Kind: AllToAllv, Type: mem.Float32, Ranks: []int{5, 1, 4, 0}, Counts: [][]int{{1, 2, 0, 3}, {4, 0, 5, 6}, {0, 7, 8, 9}, {1, 0, 2, 0}}}
	plan := func(w *Wirings, s Spec) *Sequence { return w.ExecutorFor(c, s, 1, nil, nil).Seq }
	for _, step := range []struct {
		w       int
		s       Spec
		same    int // the wiring whose plan it must read, or -1 for a new one
		holding int
	}{
		{0, a, -1, 1},
		{1, a, 0, 1}, // another communicator, the same shape: the same plan
		{0, b, -1, 2},
		{1, b, 0, 1}, // a reverses rank order: a flat plan knows none
		{1, a, -1, 2},
	} {
		var want, other *Sequence
		if step.same >= 0 {
			want = ws[step.same].ring.plan
		}
		if r := ws[1-step.w].ring; r != nil {
			other = r.plan
		}
		if got := plan(ws[step.w], step.s); want != nil && got != want || want == nil && got == other {
			t.Fatalf("%v on wirings %d: plan %p, the other wirings' %p, want theirs: %t", step.s.Kind, step.w, got, other, want != nil)
		}
		if len(plans.held) != step.holding {
			t.Fatalf("%v on wirings %d: registry holds %d plans, want %d", step.s.Kind, step.w, len(plans.held), step.holding)
		}
	}
}

// TestHierPlansShared: two Wirings on one Plans over one rank order share
// one hierarchical plan; an order that puts the positions on other nodes
// reads another, and a permuted order that groups them alike reads the
// first again. Once the last holder of a plan swaps it away, the
// registry no longer holds it.
func TestHierPlansShared(t *testing.T) {
	c := topo.NewCluster(2, 2, topo.RTX3090, topo.DefaultLinks)
	plans := new(Plans)
	ws := []*Wirings{
		NewWirings(new(mem.Chunks), nil, plans, fabric.Unshared(c), "a"),
		NewWirings(new(mem.Chunks), nil, plans, fabric.Unshared(c), "b"),
	}
	hier := func(count int, ranks ...int) Spec {
		return Spec{Kind: AllReduce, Count: count, Type: mem.Float32, Op: mem.Sum, Ranks: ranks, Algo: AlgoHierarchical}
	}
	plan := func(w *Wirings, s Spec) *Sequence { return w.ExecutorFor(c, s, 1, nil, nil).Seq }
	q := plan(ws[0], hier(24, 0, 1, 2, 3))
	if plan(ws[1], hier(24, 0, 1, 2, 3)) != q {
		t.Fatal("a second wiring over the same rank order built its own hierarchical plan")
	}
	if p := plan(ws[1], hier(24, 0, 2, 1, 3)); p == q || len(plans.held) != 2 {
		t.Fatalf("an order on other nodes read the first plan %t; registry holds %d plans, want 2", p == q, len(plans.held))
	}
	if plan(ws[1], hier(24, 1, 0, 3, 2)) != q || len(plans.held) != 1 || plans.held[0].wires != 2 {
		t.Fatalf("an order grouped alike did not read the first plan, or the registry holds %+v, want it alone, twice", plans.held)
	}
	r := plan(ws[0], hier(40, 0, 1, 2, 3))
	if plan(ws[1], hier(40, 1, 0, 3, 2)) != r || len(plans.held) != 1 || plans.held[0].q != r {
		t.Fatalf("registry holds %+v after both wirings left the first plan, want only the new one", plans.held)
	}
}
