package prim

import (
	"testing"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// sendVal is the deterministic fill for all-to-all tests: the value of
// element i of the block rank src sends to rank dst.
func sendVal(src, dst, i int) float64 {
	return float64(1000*src + 100*dst + i)
}

func TestAllToAllCorrectness(t *testing.T) {
	cases := []struct {
		name  string
		n     int // participant count, including uneven (odd, prime) sets
		count int // per-peer block elements
		chunk int
	}{
		{"single-rank", 1, 12, 5},
		{"pair", 2, 16, 4},
		{"odd-3", 3, 10, 3},
		{"even-4", 4, 24, 7},
		{"prime-5", 5, 9, 2},
		{"prime-7", 7, 13, 5},
		{"full-8", 8, 32, 8},
		{"one-round", 4, 6, 64},
		{"zero-count", 4, 0, 8},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := topo.Server3090(8)
			ranks := make([]int, tc.n)
			for i := range ranks {
				ranks[i] = i
			}
			spec := Spec{Kind: AllToAll, Count: tc.count, Type: mem.Float64, Ranks: ranks, ChunkElems: tc.chunk}
			recv, _ := runCollective(t, c, spec, func(rank int, b *mem.Buffer) {
				for dst := 0; dst < tc.n; dst++ {
					for i := 0; i < tc.count; i++ {
						b.SetFloat64(dst*tc.count+i, sendVal(rank, dst, i))
					}
				}
			})
			for r := 0; r < tc.n; r++ {
				for src := 0; src < tc.n; src++ {
					for i := 0; i < tc.count; i++ {
						want := sendVal(src, r, i)
						if got := recv[r].Float64At(src*tc.count + i); got != want {
							t.Fatalf("rank %d block from %d elem %d = %v, want %v", r, src, i, got, want)
						}
					}
				}
			}
		})
	}
}

func TestAllToAllNonContiguousRanks(t *testing.T) {
	// Expert-parallel groups span nodes; block index is the ring
	// position within Ranks, not the global rank.
	c := topo.MultiNode3090(2)
	ranks := []int{2, 9, 5}
	const count = 8
	spec := Spec{Kind: AllToAll, Count: count, Type: mem.Float64, Ranks: ranks, ChunkElems: 3}
	recv, _ := runCollective(t, c, spec, func(rank int, b *mem.Buffer) {
		for dst := 0; dst < len(ranks); dst++ {
			for i := 0; i < count; i++ {
				b.SetFloat64(dst*count+i, sendVal(rank, dst, i))
			}
		}
	})
	for pos := range ranks {
		for src := 0; src < len(ranks); src++ {
			for i := 0; i < count; i++ {
				want := sendVal(ranks[src], pos, i)
				if got := recv[pos].Float64At(src*count + i); got != want {
					t.Fatalf("pos %d block from pos %d elem %d = %v, want %v", pos, src, i, got, want)
				}
			}
		}
	}
}

func TestAllToAllBufferCounts(t *testing.T) {
	spec := Spec{Kind: AllToAll, Count: 64, Type: mem.Float32, Ranks: []int{0, 1, 2}}
	s, r := BufferCounts(spec)
	if s != 192 || r != 192 {
		t.Fatalf("BufferCounts = (%d, %d), want (192, 192)", s, r)
	}
}

func TestAllToAllPrimitiveCounts(t *testing.T) {
	// n-1 distances, distance st needs st forwarding hops: n(n-1)/2
	// actions per chunk round — the ring's store-and-forward cost.
	for _, n := range []int{2, 3, 5, 8} {
		ranks := make([]int, n)
		for i := range ranks {
			ranks[i] = i
		}
		spec := Spec{Kind: AllToAll, Count: 128, Type: mem.Float32, Ranks: ranks, ChunkElems: 32}
		seq := spec.SequenceFor(0)
		if got, want := seq.Stages(0)[0].Len(), n*(n-1)/2; got != want {
			t.Fatalf("n=%d actions = %d, want %d", n, got, want)
		}
		if seq.TotalRounds(0) != 4 {
			t.Fatalf("n=%d rounds = %d, want 4", n, seq.TotalRounds(0))
		}
	}
}

func TestAllToAllPreemptAndResume(t *testing.T) {
	// One rank runs with a tiny spin budget and backs off whenever
	// stuck (the preemption regime); the exchange must still deliver
	// every block intact — all-to-all dynamic context is resumable.
	c := topo.Server3090(4)
	const n, count = 4, 48
	ranks := []int{0, 1, 2, 3}
	spec := Spec{Kind: AllToAll, Count: count, Type: mem.Float64, Ranks: ranks, ChunkElems: 8}
	ring := BuildRingOn(fabric.Unshared(c), spec, "t")
	recvs := make([]*mem.Buffer, n)
	execs := make([]*Executor, n)
	for i := 0; i < n; i++ {
		s := mem.NewBuffer(mem.Float64, count*n)
		recvs[i] = mem.NewBuffer(mem.Float64, count*n)
		for dst := 0; dst < n; dst++ {
			for j := 0; j < count; j++ {
				s.SetFloat64(dst*count+j, sendVal(i, dst, j))
			}
		}
		execs[i] = ring.ExecutorFor(c, spec, i, s, recvs[i])
	}
	e := sim.NewEngine()
	e.Spawn("rank0-preemptible", func(p *sim.Process) {
		for {
			switch execs[0].StepOnce(p, 2*sim.Microsecond) {
			case Done:
				return
			case Stuck:
				p.Sleep(40 * sim.Microsecond)
			}
		}
	})
	for i := 1; i < n; i++ {
		x := execs[i]
		e.Spawn("rank-slow", func(p *sim.Process) {
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
	if execs[0].SpinAborts == 0 {
		t.Fatal("rank 0 never stalled; test exercised nothing")
	}
	for r := 0; r < n; r++ {
		for src := 0; src < n; src++ {
			for j := 0; j < count; j++ {
				want := sendVal(src, r, j)
				if got := recvs[r].Float64At(src*count + j); got != want {
					t.Fatalf("rank %d block from %d elem %d = %v, want %v", r, src, j, got, want)
				}
			}
		}
	}
}
