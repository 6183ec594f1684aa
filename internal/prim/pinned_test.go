package prim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"dfccl/internal/topo"
)

// pinnedSchedules is the FNV-64a hash of every sequence schedulesHash
// builds. It changes only when a builder changes a schedule: after a
// deliberate schedule change, re-record it from the failure message.
const pinnedSchedules = 0xf918d2c02b1eed2e

// schedulesHash builds, over a grid of trials seeded rank sets per shape, every position's Sequence for
// all seven kinds on the ring and (where supported) hierarchically, and
// hashes their listed rendering. The grid spans 1–4 nodes × 1–4 GPUs, seeded rank
// subsets in seeded order, Count 0–299 (reduce-scatter rounded down to a
// multiple of N), chunk 0–39 (0: the default) and all-to-all-v matrices
// with zero entries. It returns the hash and the sequence count.
func schedulesHash(seed int64, trials int) (uint64, int) {
	h := fnv.New64a()
	rng := rand.New(rand.NewSource(seed))
	built := 0
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
						for pos := range ranks {
							var seq *Sequence
							if algo == AlgoHierarchical {
								seq = spec.HierSequenceFor(pos, g)
							} else {
								seq = spec.SequenceFor(pos)
							}
							fmt.Fprintf(h, "%v %v %d: %+v\n", kind, algo, pos, listed(seq))
							built++
						}
					}
				}
			}
		}
	}
	return h.Sum64(), built
}

// listedPlan is a Sequence with every stage's actions listed, generated
// ones included: its %+v renders a plan as the Sequence's own %+v did
// when every stage was a list, so the pinned hash spans both forms. Its
// fields mirror Sequence's, in order.
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

func listed(q *Sequence) *listedPlan {
	p := &listedPlan{Stages: []listedStage{}, segs: q.segs, chunkElems: q.chunkElems, workLen: q.workLen,
		initCopyOwnSeg: q.initCopyOwnSeg, work: q.work, inPlace: q.inPlace, seeded: q.seeded, copyOut: q.copyOut}
	for i := range q.Stages {
		st := &q.Stages[i]
		acts := []Action{}
		for k := range st.Len() {
			acts = append(acts, st.Action(k))
		}
		p.Stages = append(p.Stages, listedStage{st.Label, acts, st.Rounds})
	}
	return p
}

// TestListedPlanMirrorsSequence keeps listedPlan in step with Sequence:
// a field added to one and not the other would drop out of the hash.
func TestListedPlanMirrorsSequence(t *testing.T) {
	seq, lp := reflect.TypeOf(Sequence{}), reflect.TypeOf(listedPlan{})
	if seq.NumField() != lp.NumField() {
		t.Fatalf("Sequence has %d fields, listedPlan %d", seq.NumField(), lp.NumField())
	}
	for i := range seq.NumField() {
		if seq.Field(i).Name != lp.Field(i).Name {
			t.Fatalf("field %d: Sequence.%s, listedPlan.%s", i, seq.Field(i).Name, lp.Field(i).Name)
		}
	}
}

// TestSchedulesPinned holds every built schedule to the recorded hash:
// checkPeers proves that the two ends of each connector agree, this
// proves that the schedule itself did not move.
func TestSchedulesPinned(t *testing.T) {
	got, built := schedulesHash(30, 20)
	if got != pinnedSchedules {
		t.Fatalf("%d sequences hash to %#x, pinned %#x: a builder changed a schedule "+
			"(if deliberately, set pinnedSchedules to %#x)", built, got, uint64(pinnedSchedules), got)
	}
}
