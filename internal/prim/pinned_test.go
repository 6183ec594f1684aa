package prim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"dfccl/internal/topo"
)

// pinnedSchedules is the FNV-64a hash of every position's plan
// schedulesHash renders. It changes only when a builder changes a schedule: after a
// deliberate schedule change, re-record it from the failure message.
const pinnedSchedules = 0xf918d2c02b1eed2e

// pinnedPlans is the same hash over the %#v rendering, which spells out
// every field of every action — element bounds and endpoints too, which
// Action.String, and so pinnedSchedules, leaves out. It was recorded from
// the per-position plans before plans were shared.
const pinnedPlans = 0x72508156b2adc134

// schedulesHash builds, over a grid of trials seeded rank sets per shape,
// the plan of all seven kinds on the ring and (where supported)
// hierarchically, and hashes its listed rendering at every position, in
// %+v (schedules) and %#v (plans). The grid spans 1–4 nodes × 1–4 GPUs,
// seeded rank subsets in seeded order, Count 0–299 (reduce-scatter
// rounded down to a multiple of N), chunk 0–39 (0: the default) and
// all-to-all-v matrices with zero entries. It returns the two hashes and
// the count of positions rendered.
func schedulesHash(seed int64, trials int) (schedules, plans uint64, built int) {
	h, hp := fnv.New64a(), fnv.New64a()
	rng := rand.New(rand.NewSource(seed))
	for nodes := 1; nodes <= 4; nodes++ {
		for gpus := 1; gpus <= 4; gpus++ {
			c := topo.NewCluster(nodes, gpus, topo.RTX3090, topo.DefaultLinks)
			total := nodes * gpus
			for trial := 0; trial < trials; trial++ {
				n := 1 + rng.Intn(total)
				ranks := rng.Perm(total)[:n]
				g := GroupByNode(c, ranks)
				for kind := AllReduce; kind <= AllToAllv; kind++ {
					spec := Spec{Kind: kind, Count: rng.Intn(300), ChunkElems: rng.Intn(40), Ranks: ranks, Root: rng.Intn(n)}
					switch kind {
					case ReduceScatter:
						spec.Count -= spec.Count % n
					case AllToAllv:
						spec.Count = 0
						spec.Counts = make([][]int, n)
						for i := range spec.Counts {
							spec.Counts[i] = make([]int, n)
							for j := range spec.Counts[i] {
								if rng.Intn(3) > 0 {
									spec.Counts[i][j] = rng.Intn(60)
								}
							}
						}
					}
					for _, algo := range []Algorithm{AlgoRing, AlgoHierarchical} {
						spec.Algo = algo
						if spec.Validate() != nil {
							continue
						}
						var seq *Sequence
						if algo == AlgoHierarchical {
							seq = spec.HierSequenceFor(0, g)
						} else {
							seq = spec.SequenceFor(0)
						}
						for pos := range ranks {
							lp := listed(seq, pos)
							fmt.Fprintf(h, "%v %v %d: %+v\n", kind, algo, pos, lp)
							fmt.Fprintf(hp, "%v %v %d: %#v\n", kind, algo, pos, lp)
							built++
						}
					}
				}
			}
		}
	}
	return h.Sum64(), hp.Sum64(), built
}

// listedPlan is one position's plan with every stage's actions listed,
// generated ones included, and the position rules applied: its %+v
// renders a plan as a per-position Sequence's own %+v did when every
// plan was one position's and every stage a list, so the pinned hash
// spans both forms and holds every position's actions, segments, init
// copy and copy-out to what the per-position plans had.
type listedPlan struct {
	Stages         []listedStage
	segs           []segRange
	chunkElems     int
	workLen        int
	initCopyOwnSeg int
	work           home
	inPlace        int
	seeded         bool
	copyOut        []int
}

type listedStage struct {
	Label   string
	Actions []Action
	Rounds  int
}

// segsOf lists position pos's segments of plan q, an all-to-all-v's
// computed (countedSeg): its own and final blocks, and on the flat ring
// its two transit slots.
func segsOf(q *Sequence, pos int) []segRange {
	_, r, _ := q.read(pos)
	if r.segs != nil {
		return r.segs
	}
	segs := make([]segRange, 2*q.n, 2*q.n+2)
	if q.transit != nil {
		segs = segs[:2*q.n+2]
	}
	for i := range segs {
		segs[i] = q.countedSeg(pos, i)
	}
	return segs
}

// listed projects plan q at position pos: its layout, with the segments,
// working length, init copy, working buffer and copy-out read through
// their accessors (segsOf, workLen, ownSeg, work, outs and out) and the
// stages through Stage.Action.
func listed(q *Sequence, pos int) *listedPlan {
	_, r, _ := q.read(pos)
	p := &listedPlan{Stages: []listedStage{}, segs: segsOf(q, pos), chunkElems: q.chunkElems, workLen: q.workLen(pos),
		initCopyOwnSeg: q.ownSeg(pos), work: q.work(pos), inPlace: r.inPlace, seeded: q.seeded, copyOut: []int{}}
	for i := range q.outs(pos) {
		p.copyOut = append(p.copyOut, q.out(pos, i))
	}
	stages := q.Stages(pos)
	for i := range stages {
		st := &stages[i]
		acts := []Action{}
		for k := range st.Len() {
			acts = append(acts, st.Action(pos, k))
		}
		p.Stages = append(p.Stages, listedStage{st.Label, acts, st.Rounds})
	}
	return p
}

// TestListedPlanMirrorsSequence keeps listed in step with what a position
// reads of a plan: listedPlan has a field for every field of role, part,
// hierPlan and Sequence but the shape the plan serves, where it keeps
// its parts, their role tables, its hierarchical part and the
// all-to-all-v's transit lengths, and the two
// role rules the accessors apply (blk, which Stage.Action, ownSeg and
// out map blocks through, and ownOut, which outs and out read), and no
// other. A field added to any of them and not projected would drop out
// of the hash; the fields a position rule rewrites (segs, workLen,
// initCopyOwnSeg, work, copyOut) listed reads through their accessors.
func TestListedPlanMirrorsSequence(t *testing.T) {
	shape := map[string]bool{"kind": true, "algo": true, "n": true, "count": true, "root": true, "counts": true, "g": true,
		"transit": true, "parts": true, "flat": true, "stage": true, "hier": true, "lead": true, "memb": true, "blk": true, "ownOut": true}
	want := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeOf(role{}), reflect.TypeOf(part{}), reflect.TypeOf(hierPlan{}), reflect.TypeOf(Sequence{})} {
		for i := range typ.NumField() {
			if name := typ.Field(i).Name; !shape[name] {
				want[name] = true
			}
		}
	}
	lp := reflect.TypeOf(listedPlan{})
	if lp.NumField() != len(want) {
		t.Fatalf("listedPlan has %d fields, a position reads %d: %v", lp.NumField(), len(want), want)
	}
	for i := range lp.NumField() {
		if name := lp.Field(i).Name; !want[name] {
			t.Fatalf("listedPlan.%s is no field of role, part, hierPlan or Sequence", name)
		}
	}
}

// TestSchedulesPinned holds every built schedule to the recorded hashes:
// checkPeers proves that the two ends of each connector agree, this
// proves that the schedule itself did not move.
func TestSchedulesPinned(t *testing.T) {
	got, gotPlans, built := schedulesHash(30, 20)
	if got != pinnedSchedules {
		t.Fatalf("%d sequences hash to %#x, pinned %#x: a builder changed a schedule "+
			"(if deliberately, set pinnedSchedules to %#x)", built, got, uint64(pinnedSchedules), got)
	}
	if gotPlans != pinnedPlans {
		t.Fatalf("%d sequences' fields hash to %#x, pinned %#x: a builder changed an action's bounds or endpoints "+
			"(if deliberately, set pinnedPlans to %#x)", built, gotPlans, uint64(pinnedPlans), gotPlans)
	}
}
