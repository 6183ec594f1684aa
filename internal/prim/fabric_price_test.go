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

// runPriced executes spec to completion with transfers priced on net,
// returning recv buffers, executors, and the virtual end time.
func runPriced(t *testing.T, net *fabric.Network, spec Spec, fill func(pos int, b *mem.Buffer)) ([]*mem.Buffer, []*Executor, sim.Time) {
	t.Helper()
	c := net.Cluster()
	e := sim.NewEngine()
	n := spec.N()
	recvBufs := make([]*mem.Buffer, n)
	execs := make([]*Executor, n)
	wirings := NewWirings(new(mem.Chunks), net, "fp")
	for i := 0; i < n; i++ {
		sendCount, recvCount := BufferCountsFor(spec, i)
		s := mem.NewBuffer(spec.Type, sendCount)
		recvBufs[i] = mem.NewBuffer(spec.Type, recvCount)
		fill(i, s)
		execs[i] = wirings.ExecutorFor(c, spec, i, s, recvBufs[i])
		x := execs[i]
		e.Spawn("rank", func(p *sim.Process) {
			for x.StepOnce(p, -1) != Done {
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("%v (contended=%v): %v", spec.Kind, net.Contended(), err)
	}
	return recvBufs, execs, e.Now()
}

func sameBufs(t *testing.T, name string, a, b []*mem.Buffer) {
	t.Helper()
	for pos := range a {
		ab, bb := a[pos].Bytes(), b[pos].Bytes()
		if len(ab) != len(bb) {
			t.Fatalf("%s: pos %d recv sizes differ: %d vs %d", name, pos, len(ab), len(bb))
		}
		for i := range ab {
			if ab[i] != bb[i] {
				t.Fatalf("%s: pos %d outputs diverge at byte %d", name, pos, i)
			}
		}
	}
}

// TestFabricPricingEquivalenceCorpus replays the PR 4 60-case
// cross-algorithm corpus (same seed, same shapes) under both pricing
// models. The regression contract: results are bit-identical whether
// transfers are priced independently (fabric.Unshared) or as contending
// flows (fabric.Shared) — data never depends on the timing model.
func TestFabricPricingEquivalenceCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for trial := 0; trial < 60; trial++ {
		machines := 1 + rng.Intn(3)
		perNode := 1 + rng.Intn(4)
		cluster := topo.NewCluster(machines, perNode, topo.RTX3090, topo.DefaultLinks)
		total := machines * perNode
		n := 1 + rng.Intn(total)
		ranks := rng.Perm(total)[:n]
		counts := make([][]int, n)
		for i := range counts {
			counts[i] = make([]int, n)
			for j := range counts[i] {
				counts[i][j] = rng.Intn(20)
			}
		}
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
		fill := func(pos int, b *mem.Buffer) { fillV(counts, pos, b) }
		for _, algo := range []Algorithm{AlgoRing, AlgoHierarchical} {
			spec := Spec{Kind: AllToAllv, Type: mem.Float64, Ranks: ranks, Counts: counts, ChunkElems: chunk, Algo: algo}
			unshRecv, _, _ := runPriced(t, fabric.Unshared(cluster), spec, fill)
			sharedRecv, _, _ := runPriced(t, fabric.Shared(cluster, fabric.DefaultConfig()), spec, fill)
			sameBufs(t, name+"-shared", unshRecv, sharedRecv)
			checkV(t, counts, 0, unshRecv[0])
		}
	}
}

// interferenceFill encodes (origin, destination, offset) so the check
// below can verify the exchange regardless of timing.
func interferenceFill(n, count int) func(pos int, b *mem.Buffer) {
	return func(pos int, b *mem.Buffer) {
		for j := 0; j < n; j++ {
			for k := 0; k < count; k++ {
				b.SetFloat64(j*count+k, float64(pos*1000000+j*10000+k%100))
			}
		}
	}
}

// TestConcurrentLeaderRingInterference is the satellite's headline
// scenario: two independent 2-leader rings whose RDMA hops cross the
// same oversubscribed spine. Run solo, a ring's exchange takes T; run
// concurrently, the four flows halve each ring's spine share, so both
// complete in ~2×T — the slowdown the isolated-sum pricing cannot see.
func TestConcurrentLeaderRingInterference(t *testing.T) {
	const count = 65536 // 512 KB blocks, single chunk: bandwidth-dominated
	links := topo.DefaultLinks
	ringSpec := func(ranks []int) Spec {
		return Spec{Kind: AllToAll, Count: count, Type: mem.Float64, Ranks: ranks, ChunkElems: count}
	}
	// 4 single-GPU machines, leaves {m0,m1} and {m2,m3}, oversub 2:
	// spine = 4×RDMA/4 = RDMA, shared by every cross-leaf flow.
	newNet := func() *fabric.Network {
		return fabric.Shared(topo.NewCluster(4, 1, topo.RTX3090, links), fabric.OversubConfig(2))
	}
	fill := interferenceFill(2, count)

	runRings := func(net *fabric.Network, rankSets [][]int) ([][]*mem.Buffer, sim.Duration) {
		e := sim.NewEngine()
		recvs := make([][]*mem.Buffer, len(rankSets))
		for ri, ranks := range rankSets {
			spec := ringSpec(ranks)
			ring := BuildRingOn(net, spec, fmt.Sprintf("ring%d", ri))
			recvs[ri] = make([]*mem.Buffer, 2)
			for i := 0; i < 2; i++ {
				sendCount, recvCount := BufferCountsFor(spec, i)
				s := mem.NewBuffer(spec.Type, sendCount)
				recvs[ri][i] = mem.NewBuffer(spec.Type, recvCount)
				fill(i, s)
				x := ring.ExecutorFor(net.Cluster(), spec, i, s, recvs[ri][i])
				e.Spawn("rank", func(p *sim.Process) {
					for x.StepOnce(p, -1) != Done {
					}
				})
			}
		}
		if err := e.Run(); err != nil {
			t.Fatalf("rings %v: %v", rankSets, err)
		}
		return recvs, sim.Duration(e.Now())
	}

	// Ring A over machines {0,2}: both RDMA hops cross the spine.
	soloNet := newNet()
	soloRecv, soloT := runRings(soloNet, [][]int{{0, 2}})
	bothNet := newNet()
	bothRecv, bothT := runRings(bothNet, [][]int{{0, 2}, {1, 3}})

	ratio := float64(bothT) / float64(soloT)
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("concurrent/solo = %v/%v = %.2f, want ~2× (spine share halves)", bothT, soloT, ratio)
	}
	var spine fabric.LinkStat
	for _, s := range bothNet.Snapshot() {
		if s.Tier == fabric.TierSpine {
			spine = s
		}
	}
	if spine.Saturated == 0 {
		t.Fatal("spine never saturated with four concurrent cross-leaf flows")
	}
	// Contention changes timing only: ring A's results are identical
	// solo and concurrent.
	sameBufs(t, "solo-vs-concurrent", soloRecv[0], bothRecv[0])
}
