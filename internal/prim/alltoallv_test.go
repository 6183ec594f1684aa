package prim

import (
	"testing"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// vSendVal is the deterministic fill for all-to-all-v tests: element i
// of the block position src sends to position dst.
func vSendVal(src, dst, i int) float64 {
	return float64(10000*src + 1000*dst + i + 1)
}

// fillV writes the ragged send layout (row pos of counts, blocks in
// ring order) for position pos.
func fillV(counts [][]int, pos int, b *mem.Buffer) {
	off := 0
	for dst, c := range counts[pos] {
		for i := 0; i < c; i++ {
			b.SetFloat64(off, vSendVal(pos, dst, i))
			off++
		}
	}
}

// checkV verifies the ragged recv layout (column pos of counts, blocks
// in origin ring order) for position pos.
func checkV(t *testing.T, counts [][]int, pos int, b *mem.Buffer) {
	t.Helper()
	off := 0
	for src := range counts {
		for i := 0; i < counts[src][pos]; i++ {
			want := vSendVal(src, pos, i)
			if got := b.Float64At(off); got != want {
				t.Fatalf("pos %d block from %d elem %d = %v, want %v", pos, src, i, got, want)
			}
			off++
		}
	}
	if off != b.Len() {
		t.Fatalf("pos %d recv layout covers %d elems, buffer holds %d", pos, off, b.Len())
	}
}

func vSpec(counts [][]int, chunk int) Spec {
	ranks := make([]int, len(counts))
	for i := range ranks {
		ranks[i] = i
	}
	return Spec{Kind: AllToAllv, Type: mem.Float64, Ranks: ranks, Counts: counts, ChunkElems: chunk}
}

func TestAllToAllvCorrectness(t *testing.T) {
	cases := []struct {
		name   string
		counts [][]int
		chunk  int
	}{
		{"single-rank", [][]int{{7}}, 3},
		{"pair-skewed", [][]int{{2, 9}, {5, 1}}, 4},
		{"odd-3", [][]int{{1, 8, 3}, {4, 0, 6}, {2, 7, 5}}, 3},
		{"zero-count-peers", [][]int{{0, 5, 0, 2}, {3, 0, 0, 0}, {0, 0, 0, 7}, {1, 0, 4, 0}}, 2},
		{"silent-rank", [][]int{{0, 0, 0}, {6, 0, 4}, {3, 9, 0}}, 5}, // rank 0 sends nothing
		{"deaf-rank", [][]int{{0, 4, 2}, {0, 0, 5}, {0, 3, 0}}, 5},   // rank 0 receives nothing
		{"all-zero", [][]int{{0, 0}, {0, 0}}, 4},
		{"prime-5-ragged", [][]int{
			{1, 2, 3, 4, 5},
			{6, 7, 8, 9, 1},
			{2, 30, 4, 5, 6}, // 30 forces multi-round with chunk 8
			{7, 8, 9, 1, 2},
			{3, 4, 5, 6, 7},
		}, 8},
		{"uneven-7", func() [][]int {
			m := make([][]int, 7)
			for i := range m {
				m[i] = make([]int, 7)
				for j := range m[i] {
					m[i][j] = (i*5 + j*3) % 11
				}
			}
			return m
		}(), 4},
	}
	multiRound := 0
	for _, tc := range cases {
		tc := tc
		if len(tc.counts) > 1 && vSpec(tc.counts, tc.chunk).SequenceFor(0).TotalRounds(0) > 1 {
			multiRound++
		}
		t.Run(tc.name, func(t *testing.T) {
			c := topo.Server3090(8)
			spec := vSpec(tc.counts, tc.chunk)
			recv, _ := runCollective(t, c, spec, func(rank int, b *mem.Buffer) {
				fillV(tc.counts, rank, b)
			})
			for pos := range tc.counts {
				checkV(t, tc.counts, pos, recv[pos])
			}
		})
	}
	// The table must keep exercising the multi-round ragged path
	// (limitSlice clipping and zero-length tail chunks only engage when
	// a block spans several chunk rounds).
	if multiRound < 3 {
		t.Fatalf("only %d multi-round cases in the table; want ≥ 3", multiRound)
	}
}

func TestAllToAllvNonContiguousRanks(t *testing.T) {
	// Expert groups span nodes; counts index ring positions within
	// Ranks, not global ranks.
	c := topo.MultiNode3090(2)
	counts := [][]int{{2, 7, 1}, {0, 3, 8}, {5, 4, 6}}
	spec := Spec{Kind: AllToAllv, Type: mem.Float64, Ranks: []int{9, 2, 12}, Counts: counts, ChunkElems: 3}
	recv, _ := runCollective(t, c, spec, func(rank int, b *mem.Buffer) {
		pos := map[int]int{9: 0, 2: 1, 12: 2}[rank]
		fillV(counts, pos, b)
	})
	for pos := range counts {
		checkV(t, counts, pos, recv[pos])
	}
}

// TestAllToAllvEqualsPaddedStripped is the substitution property: for
// any count matrix, AllToAllv delivers exactly what a padded AllToAll
// (every block inflated to the matrix maximum, unused tail zeroed)
// delivers once the padding is stripped.
func TestAllToAllvEqualsPaddedStripped(t *testing.T) {
	matrices := [][][]int{
		{{3, 1, 4}, {1, 5, 9}, {2, 6, 5}},
		{{0, 8, 0, 1}, {2, 0, 0, 0}, {0, 3, 7, 0}, {4, 0, 0, 5}},
		{{11, 2}, {0, 13}},
	}
	for mi, counts := range matrices {
		n := len(counts)
		cap := 0
		for _, row := range counts {
			for _, c := range row {
				if c > cap {
					cap = c
				}
			}
		}

		// Ragged run.
		cluster := topo.Server3090(8)
		raggedRecv, _ := runCollective(t, cluster, vSpec(counts, 4), func(rank int, b *mem.Buffer) {
			fillV(counts, rank, b)
		})

		// Padded run: block (src,dst) occupies a fixed cap-element slot,
		// real data in the first counts[src][dst] elements, zeros after.
		ranks := make([]int, n)
		for i := range ranks {
			ranks[i] = i
		}
		padSpec := Spec{Kind: AllToAll, Count: cap, Type: mem.Float64, Ranks: ranks, ChunkElems: 4}
		padRecv, _ := runCollective(t, topo.Server3090(8), padSpec, func(rank int, b *mem.Buffer) {
			for dst := 0; dst < n; dst++ {
				for i := 0; i < counts[rank][dst]; i++ {
					b.SetFloat64(dst*cap+i, vSendVal(rank, dst, i))
				}
			}
		})

		// Strip the padding from the padded result and compare.
		for pos := 0; pos < n; pos++ {
			off := 0
			for src := 0; src < n; src++ {
				for i := 0; i < counts[src][pos]; i++ {
					want := padRecv[pos].Float64At(src*cap + i)
					if got := raggedRecv[pos].Float64At(off); got != want {
						t.Fatalf("matrix %d pos %d block from %d elem %d: ragged %v != padded-stripped %v",
							mi, pos, src, i, got, want)
					}
					off++
				}
			}
		}
	}
}

func TestAllToAllvPreemptAndResume(t *testing.T) {
	// One rank runs with a tiny spin budget and backs off whenever
	// stuck; the ragged exchange must deliver every block intact —
	// AllToAllv dynamic context is resumable mid-round, like AllToAll.
	c := topo.Server3090(4)
	counts := [][]int{
		{4, 40, 2, 0},
		{9, 1, 33, 6},
		{0, 12, 3, 28},
		{17, 0, 5, 8},
	}
	const n = 4
	spec := vSpec(counts, 8)
	ring := BuildRingOn(fabric.Unshared(c), spec, "tv")
	recvs := make([]*mem.Buffer, n)
	execs := make([]*Executor, n)
	for i := 0; i < n; i++ {
		sendCount, recvCount := BufferCountsFor(spec, i)
		s := mem.NewBuffer(mem.Float64, sendCount)
		recvs[i] = mem.NewBuffer(mem.Float64, recvCount)
		fillV(counts, i, s)
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
	for pos := 0; pos < n; pos++ {
		checkV(t, counts, pos, recvs[pos])
	}
}

func TestAllToAllvValidate(t *testing.T) {
	bad := []struct {
		name string
		spec Spec
	}{
		{"missing-counts", Spec{Kind: AllToAllv, Type: mem.Float64, Ranks: []int{0, 1}}},
		{"short-row", Spec{Kind: AllToAllv, Type: mem.Float64, Ranks: []int{0, 1}, Counts: [][]int{{1, 2}, {3}}}},
		{"wrong-rows", Spec{Kind: AllToAllv, Type: mem.Float64, Ranks: []int{0, 1}, Counts: [][]int{{1, 2}}}},
		{"negative", Spec{Kind: AllToAllv, Type: mem.Float64, Ranks: []int{0, 1}, Counts: [][]int{{1, -2}, {3, 4}}}},
		{"count-set", Spec{Kind: AllToAllv, Count: 5, Type: mem.Float64, Ranks: []int{0, 1}, Counts: [][]int{{1, 2}, {3, 4}}}},
		{"counts-on-allreduce", Spec{Kind: AllReduce, Count: 8, Type: mem.Float64, Ranks: []int{0, 1}, Counts: [][]int{{1, 2}, {3, 4}}}},
	}
	for _, tc := range bad {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
	}
	good := vSpec([][]int{{0, 3}, {2, 0}}, 4)
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestAllToAllvBufferCountsFor(t *testing.T) {
	spec := vSpec([][]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}, 4)
	wantSend := []int{6, 15, 24}  // row sums
	wantRecv := []int{12, 15, 18} // column sums
	if n := testing.AllocsPerRun(10, func() { BufferCountsFor(spec, 1) }); n != 0 {
		t.Errorf("BufferCountsFor allocates %v times, want 0: the sums are taken in place", n)
	}
	for pos := 0; pos < 3; pos++ {
		s, r := BufferCountsFor(spec, pos)
		if s != wantSend[pos] || r != wantRecv[pos] {
			t.Fatalf("pos %d: BufferCountsFor = (%d, %d), want (%d, %d)", pos, s, r, wantSend[pos], wantRecv[pos])
		}
	}
}

// TestAllToAllSingleRankNoop pins the explicit degenerate sequence for
// both all-to-all variants: a 1-rank group is a local copy — one round,
// zero ring primitives — and one StepOnce completes it.
func TestAllToAllSingleRankNoop(t *testing.T) {
	c := topo.Server3090(1)
	specs := map[string]Spec{
		"all-to-all":   {Kind: AllToAll, Count: 100, Type: mem.Float64, Ranks: []int{0}, ChunkElems: 8},
		"all-to-all-v": {Kind: AllToAllv, Type: mem.Float64, Ranks: []int{0}, Counts: [][]int{{100}}, ChunkElems: 8},
	}
	for name, spec := range specs {
		seq := spec.SequenceFor(0)
		if seq.TotalRounds(0) != 1 {
			t.Errorf("%s: 1-rank Rounds = %d, want the explicit single no-op round", name, seq.TotalRounds(0))
		}
		if seq.NumPrimitives(0) != 0 {
			t.Errorf("%s: 1-rank NumPrimitives = %d, want 0", name, seq.NumPrimitives(0))
		}
		ring := BuildRingOn(fabric.Unshared(c), spec, "solo")
		send := mem.NewBuffer(mem.Float64, 100)
		recv := mem.NewBuffer(mem.Float64, 100)
		for i := 0; i < 100; i++ {
			send.SetFloat64(i, float64(i+1))
		}
		x := ring.ExecutorFor(c, spec, 0, send, recv)
		e := sim.NewEngine()
		e.Spawn("solo", func(p *sim.Process) {
			if r := x.StepOnce(p, -1); r != Done {
				t.Errorf("%s: first StepOnce = %v, want Done", name, r)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if x.PrimsExecuted != 0 {
			t.Errorf("%s: PrimsExecuted = %d, want 0", name, x.PrimsExecuted)
		}
		for i := 0; i < 100; i++ {
			if got := recv.Float64At(i); got != float64(i+1) {
				t.Fatalf("%s: recv[%d] = %v, want %v", name, i, got, float64(i+1))
			}
		}
	}
}

// wireBytes runs spec to completion and returns the total bytes all
// executors wrote to their send connectors — observed ring traffic,
// store-and-forward hops included.
func wireBytes(t *testing.T, spec Spec, fill func(rank int, b *mem.Buffer)) int {
	t.Helper()
	c := topo.Server3090(8)
	e := sim.NewEngine()
	ring := BuildRingOn(fabric.Unshared(c), spec, "wb")
	n := spec.N()
	execs := make([]*Executor, n)
	for i := 0; i < n; i++ {
		sendCount, recvCount := BufferCountsFor(spec, i)
		s := mem.NewBuffer(spec.Type, sendCount)
		fill(spec.Ranks[i], s)
		execs[i] = ring.ExecutorFor(c, spec, i, s, mem.NewBuffer(spec.Type, recvCount))
		x := execs[i]
		e.Spawn("rank", func(p *sim.Process) {
			for x.StepOnce(p, -1) != Done {
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("%v: %v", spec.Kind, err)
	}
	total := 0
	for _, x := range execs {
		total += x.BytesSent
	}
	return total
}

// TestAllToAllvWireBytesBelowPadded pins the bandwidth claim at the
// wire: for a skewed matrix, the ragged exchange's observed connector
// traffic (hops included) is strictly below the padded AllToAll's at
// the same capacity — the executor-level counter would expose a
// regression (e.g. limitSlice no longer clipping transit slots) that
// buffer-size accounting cannot see.
func TestAllToAllvWireBytesBelowPadded(t *testing.T) {
	counts := [][]int{
		{3, 24, 1, 0},
		{7, 2, 19, 5},
		{0, 11, 4, 23},
		{16, 0, 6, 2},
	}
	n, cap := 4, 24
	ragged := wireBytes(t, vSpec(counts, 8), func(rank int, b *mem.Buffer) {
		fillV(counts, rank, b)
	})
	ranks := []int{0, 1, 2, 3}
	padded := wireBytes(t, Spec{Kind: AllToAll, Count: cap, Type: mem.Float64, Ranks: ranks, ChunkElems: 8},
		func(rank int, b *mem.Buffer) {
			for dst := 0; dst < n; dst++ {
				for i := 0; i < counts[rank][dst]; i++ {
					b.SetFloat64(dst*cap+i, vSendVal(rank, dst, i))
				}
			}
		})
	if ragged == 0 || ragged >= padded {
		t.Fatalf("wire bytes: ragged=%d padded=%d; want 0 < ragged < padded", ragged, padded)
	}
	// The ring schedule's hop-weighted traffic is exact and
	// deterministic: block (i→j) crosses (j-i) mod n hops, each hop
	// resending the whole block.
	wantRagged := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			wantRagged += counts[i][j] * mod(j-i, n) * 8
		}
	}
	if ragged != wantRagged {
		t.Fatalf("ragged wire bytes = %d, want hop-weighted %d", ragged, wantRagged)
	}
}

// TestAllToAllvPrimitiveCounts: the ragged schedule keeps the ring's
// n(n-1)/2 actions per round — raggedness changes chunk lengths, never
// the step structure (that uniformity is what keeps flow control
// deadlock-free).
func TestAllToAllvPrimitiveCounts(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		m := make([][]int, n)
		for i := range m {
			m[i] = make([]int, n)
			for j := range m[i] {
				m[i][j] = 1 + (i+j)%3
			}
		}
		seq := vSpec(m, 32).SequenceFor(0)
		if got, want := seq.Stages(0)[0].Len(), n*(n-1)/2; got != want {
			t.Fatalf("n=%d actions = %d, want %d", n, got, want)
		}
	}
}
