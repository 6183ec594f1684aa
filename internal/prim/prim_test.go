package prim

import (
	"math"
	"testing"
	"testing/quick"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// runCollective executes spec to completion on a fresh cluster with one
// unbounded-spin process per rank (NCCL-style execution), returning the
// recv buffers and the virtual completion time.
func runCollective(t *testing.T, c *topo.Cluster, spec Spec, fill func(rank int, b *mem.Buffer)) ([]*mem.Buffer, sim.Time) {
	t.Helper()
	e := sim.NewEngine()
	ring := BuildRingOn(fabric.Unshared(c), spec, "t")
	n := spec.N()
	sendBufs := make([]*mem.Buffer, n)
	recvBufs := make([]*mem.Buffer, n)
	for i := 0; i < n; i++ {
		sendCount, recvCount := BufferCountsFor(spec, i)
		sendBufs[i] = mem.NewBuffer(spec.Type, sendCount)
		recvBufs[i] = mem.NewBuffer(spec.Type, recvCount)
		fill(spec.Ranks[i], sendBufs[i])
	}
	for i := 0; i < n; i++ {
		x := ring.ExecutorFor(c, spec, i, sendBufs[i], recvBufs[i])
		e.Spawn("rank", func(p *sim.Process) {
			for {
				if r := x.StepOnce(p, -1); r == Done {
					return
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("collective %v: %v", spec.Kind, err)
	}
	return recvBufs, e.Now()
}

func TestAllReduceCorrectness(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		c := topo.Server3090(8)
		ranks := make([]int, n)
		for i := range ranks {
			ranks[i] = i
		}
		const count = 1000
		spec := Spec{Kind: AllReduce, Count: count, Type: mem.Float64, Op: mem.Sum, Ranks: ranks, ChunkElems: 64}
		recv, _ := runCollective(t, c, spec, func(rank int, b *mem.Buffer) {
			for i := 0; i < b.Len(); i++ {
				b.SetFloat64(i, float64(rank+1)*float64(i+1))
			}
		})
		// Expected: sum over ranks of (rank+1)*(i+1) = (i+1) * n(n+1)/2.
		factor := float64(n*(n+1)) / 2
		for r := 0; r < n; r++ {
			for i := 0; i < count; i++ {
				want := float64(i+1) * factor
				if got := recv[r].Float64At(i); got != want {
					t.Fatalf("n=%d rank %d elem %d = %v, want %v", n, r, i, got, want)
				}
			}
		}
	}
}

func TestAllReduceOps(t *testing.T) {
	c := topo.Server3090(4)
	for _, op := range []mem.ReduceOp{mem.Max, mem.Min, mem.Prod} {
		spec := Spec{Kind: AllReduce, Count: 17, Type: mem.Float64, Op: op, Ranks: []int{0, 1, 2, 3}, ChunkElems: 4}
		recv, _ := runCollective(t, c, spec, func(rank int, b *mem.Buffer) {
			b.Fill(float64(rank + 2))
		})
		var want float64
		switch op {
		case mem.Max:
			want = 5
		case mem.Min:
			want = 2
		case mem.Prod:
			want = 2 * 3 * 4 * 5
		}
		for r := 0; r < 4; r++ {
			if got := recv[r].Float64At(16); got != want {
				t.Fatalf("%v: rank %d = %v, want %v", op, r, got, want)
			}
		}
	}
}

func TestAllGatherCorrectness(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		c := topo.Server3090(8)
		ranks := make([]int, n)
		for i := range ranks {
			ranks[i] = i
		}
		const per = 33
		spec := Spec{Kind: AllGather, Count: per, Type: mem.Float32, Op: mem.Sum, Ranks: ranks, ChunkElems: 8}
		recv, _ := runCollective(t, c, spec, func(rank int, b *mem.Buffer) {
			b.Fill(float64(100 + rank))
		})
		for r := 0; r < n; r++ {
			for seg := 0; seg < n; seg++ {
				for i := 0; i < per; i++ {
					want := float64(100 + seg)
					if got := recv[r].Float64At(seg*per + i); got != want {
						t.Fatalf("n=%d rank %d seg %d elem %d = %v, want %v", n, r, seg, i, got, want)
					}
				}
			}
		}
	}
}

func TestReduceScatterCorrectness(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		c := topo.Server3090(4)
		ranks := make([]int, n)
		for i := range ranks {
			ranks[i] = i
		}
		count := 12 * n
		spec := Spec{Kind: ReduceScatter, Count: count, Type: mem.Float64, Op: mem.Sum, Ranks: ranks, ChunkElems: 5}
		recv, _ := runCollective(t, c, spec, func(rank int, b *mem.Buffer) {
			for i := 0; i < b.Len(); i++ {
				b.SetFloat64(i, float64(i))
			}
		})
		per := count / n
		for r := 0; r < n; r++ {
			for i := 0; i < per; i++ {
				want := float64(n) * float64(r*per+i)
				if got := recv[r].Float64At(i); got != want {
					t.Fatalf("n=%d rank %d elem %d = %v, want %v", n, r, i, got, want)
				}
			}
		}
	}
}

func TestBroadcastCorrectness(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		for root := 0; root < n; root++ {
			c := topo.Server3090(8)
			ranks := make([]int, n)
			for i := range ranks {
				ranks[i] = i
			}
			spec := Spec{Kind: Broadcast, Count: 50, Type: mem.Int32, Op: mem.Sum, Root: root, Ranks: ranks, ChunkElems: 7}
			recv, _ := runCollective(t, c, spec, func(rank int, b *mem.Buffer) {
				b.Fill(float64(1000 + rank)) // only root's data must propagate
			})
			for r := 0; r < n; r++ {
				if got := recv[r].Float64At(49); got != float64(1000+root) {
					t.Fatalf("n=%d root=%d rank %d = %v, want %v", n, root, r, got, float64(1000+root))
				}
			}
		}
	}
}

func TestReduceCorrectness(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		for _, root := range []int{0, n - 1, n / 2} {
			c := topo.Server3090(8)
			ranks := make([]int, n)
			for i := range ranks {
				ranks[i] = i
			}
			spec := Spec{Kind: Reduce, Count: 20, Type: mem.Float64, Op: mem.Sum, Root: root, Ranks: ranks, ChunkElems: 6}
			recv, _ := runCollective(t, c, spec, func(rank int, b *mem.Buffer) {
				b.Fill(float64(rank + 1))
			})
			want := float64(n*(n+1)) / 2
			if got := recv[root].Float64At(19); got != want {
				t.Fatalf("n=%d root=%d = %v, want %v", n, root, got, want)
			}
		}
	}
}

func TestNonContiguousRanks(t *testing.T) {
	// Collectives over a subset of GPUs (e.g. a TP group) must work.
	c := topo.MultiNode3090(2)
	spec := Spec{Kind: AllReduce, Count: 64, Type: mem.Float64, Op: mem.Sum, Ranks: []int{1, 5, 9, 13}, ChunkElems: 16}
	recv, _ := runCollective(t, c, spec, func(rank int, b *mem.Buffer) {
		b.Fill(float64(rank))
	})
	want := float64(1 + 5 + 9 + 13)
	for i := range recv {
		if got := recv[i].Float64At(0); got != want {
			t.Fatalf("pos %d = %v, want %v", i, got, want)
		}
	}
}

func TestLargerBufferTakesLonger(t *testing.T) {
	c := topo.Server3090(8)
	ranks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	mk := func(count int) sim.Time {
		spec := Spec{Kind: AllReduce, Count: count, Type: mem.Float32, Op: mem.Sum, Ranks: ranks}
		_, end := runCollective(t, c, spec, func(rank int, b *mem.Buffer) { b.Fill(1) })
		return end
	}
	small, large := mk(1024), mk(1024*1024)
	if large <= small {
		t.Fatalf("1M-elem all-reduce (%v) not slower than 1K (%v)", large, small)
	}
}

func TestPrimitiveCounts(t *testing.T) {
	spec := Spec{Kind: AllReduce, Count: 1 << 20, Type: mem.Float32, Op: mem.Sum,
		Ranks: []int{0, 1, 2, 3, 4, 5, 6, 7}, ChunkElems: 32768}
	seq := spec.SequenceFor(0)
	if got := seq.Stages(0)[0].Len(); got != 14 { // 2*(8-1)
		t.Fatalf("actions = %d, want 14", got)
	}
	// 1M elems / 8 segs = 131072 per seg; 131072/32768 = 4 rounds.
	if seq.TotalRounds(0) != 4 {
		t.Fatalf("rounds = %d, want 4", seq.TotalRounds(0))
	}
	if seq.NumPrimitives(0) != 56 {
		t.Fatalf("prims = %d, want 56", seq.NumPrimitives(0))
	}
}

func TestSpinBudgetAbortsWhenPeerAbsent(t *testing.T) {
	// A lone executor whose peer never shows up must return Stuck
	// within its budget instead of hanging — the preemption chance.
	c := topo.Server3090(2)
	spec := Spec{Kind: AllReduce, Count: 100, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 1}, ChunkElems: 10}
	ring := BuildRingOn(fabric.Unshared(c), spec, "t")
	send := mem.NewBuffer(mem.Float32, 100)
	recv := mem.NewBuffer(mem.Float32, 100)
	x := ring.ExecutorFor(c, spec, 0, send, recv)
	e := sim.NewEngine()
	var results []StepResult
	e.Spawn("lone", func(p *sim.Process) {
		for i := 0; i < 20; i++ {
			r := x.StepOnce(p, 10*sim.Microsecond)
			results = append(results, r)
			if r == Stuck {
				return
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) == 0 || results[len(results)-1] != Stuck {
		t.Fatalf("results = %v, want eventual Stuck", results)
	}
	if x.SpinAborts != 1 {
		t.Fatalf("spinAborts = %d, want 1", x.SpinAborts)
	}
	// The executor can progress a few send-only steps (connector has
	// slots) but must stall once it needs the peer's data.
	if x.Round != 0 {
		t.Fatalf("round advanced to %d without peer", x.Round)
	}
}

func TestPreemptAndResumeMidCollective(t *testing.T) {
	// Rank 0 runs with a small spin budget and is "preempted" (stops
	// stepping) whenever stuck, resuming later; rank 1 runs freely.
	// The collective must still complete with correct data — the
	// persistent-visibility + dynamic-context correctness argument.
	c := topo.Server3090(2)
	const count = 256
	spec := Spec{Kind: AllReduce, Count: count, Type: mem.Float64, Op: mem.Sum, Ranks: []int{0, 1}, ChunkElems: 16}
	ring := BuildRingOn(fabric.Unshared(c), spec, "t")
	bufs := make([][2]*mem.Buffer, 2)
	execs := make([]*Executor, 2)
	for i := 0; i < 2; i++ {
		s := mem.NewBuffer(mem.Float64, count)
		r := mem.NewBuffer(mem.Float64, count)
		for j := 0; j < count; j++ {
			s.SetFloat64(j, float64((i+1)*(j+1)))
		}
		bufs[i] = [2]*mem.Buffer{s, r}
		execs[i] = ring.ExecutorFor(c, spec, i, s, r)
	}
	e := sim.NewEngine()
	e.Spawn("rank0-preemptible", func(p *sim.Process) {
		for {
			switch execs[0].StepOnce(p, 2*sim.Microsecond) {
			case Done:
				return
			case Stuck:
				p.Sleep(50 * sim.Microsecond) // preempted; daemon runs others
			}
		}
	})
	e.Spawn("rank1-slow", func(p *sim.Process) {
		for {
			if execs[1].StepOnce(p, -1) == Done {
				return
			}
			p.Sleep(20 * sim.Microsecond) // slow peer forces rank 0 to stall
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if execs[0].SpinAborts == 0 {
		t.Fatal("rank 0 never stalled; test exercised nothing")
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < count; j++ {
			want := 3 * float64(j+1) // (1+2)*(j+1)
			if got := bufs[i][1].Float64At(j); got != want {
				t.Fatalf("rank %d elem %d = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestZeroCountCollective(t *testing.T) {
	c := topo.Server3090(4)
	spec := Spec{Kind: AllReduce, Count: 0, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 1, 2, 3}}
	recv, _ := runCollective(t, c, spec, func(rank int, b *mem.Buffer) {})
	if recv[0].Len() != 0 {
		t.Fatal("zero-count collective should produce empty recv buffer")
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Kind: AllReduce, Count: 4, Ranks: nil},
		{Kind: AllReduce, Count: -1, Ranks: []int{0}},
		{Kind: AllReduce, Count: 4, Ranks: []int{0, 0}},
		{Kind: Broadcast, Count: 4, Root: 5, Ranks: []int{0, 1}},
		// Count/N per rank: 10 elements have no reduce-scatter over 4.
		{Kind: ReduceScatter, Count: 10, Ranks: []int{0, 1, 2, 3}},
		{Kind: Kind(7), Count: 4, Ranks: []int{0, 1}},
		{Kind: Kind(-1), Count: 4, Ranks: []int{0, 1}},
		{Kind: AllGather, Count: 4, Type: mem.DataType(4), Ranks: []int{0, 1}},
		{Kind: AllReduce, Count: 4, Op: mem.ReduceOp(9), Ranks: []int{0, 1}},
		{Kind: Reduce, Count: 4, Op: mem.ReduceOp(-1), Ranks: []int{0, 1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid spec", i)
		}
	}
	// The op is read only by the reducing kinds.
	if err := (Spec{Kind: AllGather, Count: 4, Op: mem.ReduceOp(9), Ranks: []int{0, 1}}).Validate(); err != nil {
		t.Errorf("all-gather with an unused op rejected: %v", err)
	}
	good := Spec{Kind: Reduce, Count: 4, Root: 1, Ranks: []int{3, 7}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	// The rank named is the first one to repeat an earlier rank.
	dup := Spec{Kind: AllReduce, Count: 4, Ranks: []int{5, 2, 9, 2, 5}}
	if err := dup.Validate(); err == nil || err.Error() != "prim: duplicate rank 2" {
		t.Errorf("Validate(ranks %v) = %v, want prim: duplicate rank 2", dup.Ranks, err)
	}
}

// Property: ring all-reduce over random float64 data matches a direct
// elementwise sum for random rank counts and chunk sizes.
func TestAllReduceSumProperty(t *testing.T) {
	f := func(seedData []float64, nRaw, chunkRaw uint8) bool {
		n := int(nRaw)%7 + 2 // 2..8 ranks
		chunk := int(chunkRaw)%31 + 1
		count := len(seedData)
		if count == 0 {
			count = 1
			seedData = []float64{1}
		}
		if count > 200 {
			count = 200
			seedData = seedData[:200]
		}
		for _, v := range seedData {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true // skip non-finite inputs
			}
		}
		c := topo.Server3090(8)
		ranks := make([]int, n)
		for i := range ranks {
			ranks[i] = i
		}
		spec := Spec{Kind: AllReduce, Count: count, Type: mem.Float64, Op: mem.Sum, Ranks: ranks, ChunkElems: chunk}
		e := sim.NewEngine()
		ring := BuildRingOn(fabric.Unshared(c), spec, "q")
		recvs := make([]*mem.Buffer, n)
		for i := 0; i < n; i++ {
			s := mem.NewBuffer(mem.Float64, count)
			recvs[i] = mem.NewBuffer(mem.Float64, count)
			for j := 0; j < count; j++ {
				s.SetFloat64(j, seedData[j]*float64(i+1))
			}
			x := ring.ExecutorFor(c, spec, i, s, recvs[i])
			e.Spawn("r", func(p *sim.Process) {
				for x.StepOnce(p, -1) != Done {
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		// Reduction order along the ring is deterministic but differs
		// per segment; compare with tolerance for float reassociation.
		for j := 0; j < count; j++ {
			var want float64
			for i := 0; i < n; i++ {
				want += seedData[j] * float64(i+1)
			}
			got := recvs[0].Float64At(j)
			diff := math.Abs(got - want)
			tol := 1e-9 * (1 + math.Abs(want))
			if diff > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
