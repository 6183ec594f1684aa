package prim

import (
	"fmt"
	"math/rand"
	"testing"

	"dfccl/internal/mem"
	"dfccl/internal/topo"
)

// collVal is the deterministic contribution of ring position pos at
// element index i: a small exact integer, so any association order of
// a float64 Sum stays below 2^53 and is bit-identical — the property
// that lets the hierarchical schedules (different reduction orders) be
// compared byte-for-byte against the ring.
func collVal(pos, i int) float64 {
	return float64(1 + (pos*31+i*7)%101)
}

// reduceVals folds collVal over all n positions at element i.
func reduceVals(op mem.ReduceOp, n, i int) float64 {
	acc := collVal(0, i)
	for pos := 1; pos < n; pos++ {
		v := collVal(pos, i)
		switch op {
		case mem.Max:
			if v > acc {
				acc = v
			}
		case mem.Min:
			if v < acc {
				acc = v
			}
		default:
			acc += v
		}
	}
	return acc
}

// fillColl writes position pos's send buffer for any of the reduction
// collectives (every element indexed from the buffer start).
func fillColl(pos int, b *mem.Buffer) {
	for i := 0; i < b.Len(); i++ {
		b.SetFloat64(i, collVal(pos, i))
	}
}

// checkColl verifies a recv buffer against the collective's semantics.
func checkColl(t *testing.T, name string, spec Spec, pos int, b *mem.Buffer) {
	t.Helper()
	n := spec.N()
	switch spec.Kind {
	case AllReduce:
		for i := 0; i < spec.Count; i++ {
			if got, want := b.Float64At(i), reduceVals(spec.Op, n, i); got != want {
				t.Fatalf("%s: all-reduce pos %d elem %d = %v, want %v", name, pos, i, got, want)
			}
		}
	case AllGather:
		for src := 0; src < n; src++ {
			for i := 0; i < spec.Count; i++ {
				if got, want := b.Float64At(src*spec.Count+i), collVal(src, i); got != want {
					t.Fatalf("%s: all-gather pos %d block %d elem %d = %v, want %v", name, pos, src, i, got, want)
				}
			}
		}
	case ReduceScatter:
		lo := pos * (spec.Count / n)
		for i := 0; i < spec.Count/n; i++ {
			if got, want := b.Float64At(i), reduceVals(spec.Op, n, lo+i); got != want {
				t.Fatalf("%s: reduce-scatter pos %d elem %d = %v, want %v", name, pos, i, got, want)
			}
		}
	default:
		t.Fatalf("checkColl: unsupported kind %v", spec.Kind)
	}
}

// TestHierCollEquivalenceProperty extends the PR 4 cross-algorithm
// equivalence corpus to the reduction collectives: seeded-random
// cluster shapes × rank subsets × payloads × reduction operators, each
// run under both algorithms. Outputs must be bit-identical (exact-
// integer payloads make every reduction order exact) and hierarchical
// RDMA bytes must never exceed the ring's.
func TestHierCollEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	kinds := []Kind{AllReduce, AllGather, ReduceScatter}
	ops := []mem.ReduceOp{mem.Sum, mem.Max, mem.Min}
	for trial := 0; trial < 72; trial++ {
		machines := 1 + rng.Intn(3)
		perNode := 1 + rng.Intn(4)
		cluster := topo.NewCluster(machines, perNode, topo.RTX3090, topo.DefaultLinks)
		total := machines * perNode
		n := 1 + rng.Intn(total)
		ranks := rng.Perm(total)[:n] // random subset in random (interleaved) order
		kind := kinds[trial%len(kinds)]
		count := n * rng.Intn(24) // divisible by n (reduce-scatter needs it; harmless elsewhere)
		if kind == AllGather {
			count = rng.Intn(40)
		}
		chunk := 1 + rng.Intn(8)
		spec := Spec{
			Kind: kind, Count: count, Type: mem.Float64, Op: ops[rng.Intn(len(ops))],
			Ranks: ranks, ChunkElems: chunk, Algo: AlgoHierarchical,
		}
		name := fmt.Sprintf("trial%d-%v-m%d-g%d-n%d-count%d-c%d", trial, kind, machines, perNode, n, count, chunk)
		hierRecv, hexecs := runHier(t, cluster, spec, fillColl)
		ringRecv, rexecs := runRingRef(t, cluster, spec, fillColl)
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
			checkColl(t, name, spec, pos, hierRecv[pos])
		}
		hby, rby := sumBytesBy(hexecs), sumBytesBy(rexecs)
		if hby.RDMA > rby.RDMA {
			t.Fatalf("%s: hierarchical RDMA bytes %d > ring %d", name, hby.RDMA, rby.RDMA)
		}
		requirePeers(t, name, cluster, spec)
	}
}

// TestHierCollRDMAStrictlyLower pins the bandwidth claim per kind: on
// a 2×2 cluster (two ranks per node) the hierarchical schedule moves
// strictly fewer RDMA bytes than the flat ring, and exactly the
// predicted inter-leader total — 2(M-1)·C for all-reduce, (M-1)·n·C
// for all-gather (C per-rank), and (M-1)·C for reduce-scatter.
func TestHierCollRDMAStrictlyLower(t *testing.T) {
	cluster := topo.NewCluster(2, 2, topo.RTX3090, topo.DefaultLinks)
	const elemSize = 8
	cases := []struct {
		kind     Kind
		count    int
		wantRDMA int
	}{
		{AllReduce, 48, 2 * 1 * 48 * elemSize},
		{AllGather, 12, 1 * 4 * 12 * elemSize},
		{ReduceScatter, 48, 1 * 48 * elemSize},
	}
	for _, tc := range cases {
		spec := Spec{
			Kind: tc.kind, Count: tc.count, Type: mem.Float64, Op: mem.Sum,
			Ranks: []int{0, 1, 2, 3}, ChunkElems: 8, Algo: AlgoHierarchical,
		}
		_, hexecs := runHier(t, cluster, spec, fillColl)
		_, rexecs := runRingRef(t, cluster, spec, fillColl)
		hby, rby := sumBytesBy(hexecs), sumBytesBy(rexecs)
		if hby.RDMA != tc.wantRDMA {
			t.Errorf("%v: hierarchical RDMA bytes = %d, want %d", tc.kind, hby.RDMA, tc.wantRDMA)
		}
		if hby.RDMA >= rby.RDMA {
			t.Errorf("%v: hierarchical RDMA bytes %d not strictly below ring's %d", tc.kind, hby.RDMA, rby.RDMA)
		}
	}
}

// TestHierCollSingleNodeDegenerate pins the single-node degeneration
// per kind: only intra stages (mesh exchange — the direct schedule IS
// the algorithm on one node), zero RDMA bytes, and bit-identical
// results.
func TestHierCollSingleNodeDegenerate(t *testing.T) {
	cluster := topo.Server3090(4)
	cases := []struct {
		kind       Kind
		count      int
		wantLabels []string
	}{
		// m=4: three reduce-scatter offsets then three all-gather offsets.
		{AllReduce, 40, []string{"intra-rs", "intra-rs", "intra-rs", "intra-ag", "intra-ag", "intra-ag"}},
		// m=4: three mesh exchange offsets.
		{AllGather, 10, []string{"intra", "intra", "intra"}},
		{ReduceScatter, 40, []string{"intra-rs", "intra-rs", "intra-rs"}},
	}
	for _, tc := range cases {
		spec := Spec{
			Kind: tc.kind, Count: tc.count, Type: mem.Float64, Op: mem.Sum,
			Ranks: []int{0, 1, 2, 3}, ChunkElems: 4, Algo: AlgoHierarchical,
		}
		g := GroupByNode(cluster, spec.Ranks)
		for pos := 0; pos < 4; pos++ {
			seq := spec.HierSequenceFor(pos, g)
			if got, want := seq.NumStages(pos), len(tc.wantLabels); got != want {
				t.Fatalf("%v pos %d: NumStages = %d, want %d", tc.kind, pos, got, want)
			}
			for i, st := range seq.Stages(pos) {
				if st.Label != tc.wantLabels[i] {
					t.Fatalf("%v pos %d: stage %d = %q, want %q", tc.kind, pos, i, st.Label, tc.wantLabels[i])
				}
			}
		}
		recv, execs := runHier(t, cluster, spec, fillColl)
		for pos := 0; pos < 4; pos++ {
			checkColl(t, fmt.Sprint(tc.kind), spec, pos, recv[pos])
		}
		if by := sumBytesBy(execs); by.RDMA != 0 {
			t.Fatalf("%v: single-node hierarchical moved %d RDMA bytes, want 0", tc.kind, by.RDMA)
		}
	}
}

// TestHierCollOneRank pins the 1-rank degeneration: every kind
// collapses to the shared no-op copy sequence (one round, zero
// primitives, send buffer copied straight to recv).
func TestHierCollOneRank(t *testing.T) {
	cluster := topo.Server3090(1)
	for _, kind := range []Kind{AllReduce, AllGather, ReduceScatter} {
		spec := Spec{
			Kind: kind, Count: 6, Type: mem.Float64, Op: mem.Sum,
			Ranks: []int{0}, ChunkElems: 2, Algo: AlgoHierarchical,
		}
		g := GroupByNode(cluster, spec.Ranks)
		seq := spec.HierSequenceFor(0, g)
		if seq.NumPrimitives(0) != 0 || seq.TotalRounds(0) != 1 {
			t.Fatalf("%v: 1-rank sequence has %d primitives over %d rounds, want 0 over 1",
				kind, seq.NumPrimitives(0), seq.TotalRounds(0))
		}
		recv, execs := runHier(t, cluster, spec, fillColl)
		checkColl(t, fmt.Sprint(kind), spec, 0, recv[0])
		if got := execs[0].BytesSentBy.Total(); got != 0 {
			t.Fatalf("%v: 1-rank collective sent %d wire bytes, want 0", kind, got)
		}
	}
}
