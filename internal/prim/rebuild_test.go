package prim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
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
					plans = append(plans, plan{spec, NewWirings(new(mem.Chunks), fabric.Unshared(c), "rebuild"), pos})
				}
			}
		}
	}
	return plans
}

// TestRebuildMatchesFresh holds the in-place rebuild, over every ordered
// pair (A, B) of the corpus, to a fresh build of B: A's used executor
// rebuilt as B's is B's new executor. Its plan, built over A's, is
// reflect.DeepEqual to B's built over an empty Sequence, and its scratch
// holds what a new one holds: zeroes, or, for a scratch the init copy
// overwrites whole, none or any bytes of the right length.
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
			x.PrimsExecuted, x.SpinAborts, x.BytesSent, x.BytesSentBy = 4, 5, 6, TransportBytes{7, 8, 9}
			x.AbortCheck, x.RecColl, x.Job = func() bool { return true }, 10, 11
			if x.Seq.useScratch && x.scratch == nil {
				x.scratch = mem.NewBuffer(a.spec.Type, x.Seq.workLen) // as the first run's init copy leaves it
			}
			if x.scratch != nil {
				for i := range x.scratch.Bytes() {
					x.scratch.Bytes()[i] = 0xff
				}
			}
			b.ws.Rebuild(x, c, b.spec, b.pos)
			if !reflect.DeepEqual(x.Seq, fresh.Seq) {
				t.Fatalf("%v built over %v:\n got %+v\nwant %+v", b, a, x.Seq, fresh.Seq)
			}
			if x.scratch != nil && fresh.Seq.useScratch && !fresh.Spec.TimingOnly {
				rebuilt++
				switch {
				case fresh.scratch != nil && (x.scratch.Type != fresh.scratch.Type || !bytes.Equal(x.scratch.Bytes(), fresh.scratch.Bytes())):
					t.Fatalf("%v over %v: scratch %v %d bytes, want cleared %v %d bytes", b, a,
						x.scratch.Type, len(x.scratch.Bytes()), fresh.scratch.Type, len(fresh.scratch.Bytes()))
				case fresh.scratch == nil && (x.scratch.Type != b.spec.Type || x.scratch.Len() != fresh.Seq.workLen):
					t.Fatalf("%v over %v: scratch %v × %d, want %v × %d for the init copy", b, a,
						x.scratch.Type, x.scratch.Len(), b.spec.Type, fresh.Seq.workLen)
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
