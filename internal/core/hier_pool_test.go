package core

import (
	"testing"

	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// runHierPermuted opens a hierarchical AllToAllv over the given rank
// order on a fresh 2×2-cluster system, runs one exchange, and returns
// the summed per-transport wire bytes plus the number of communicators
// ever created. prime selects what the communicator pool is seeded
// with beforehand, over the ranks in creation order [0,1,2,3]:
// "none" (fresh communicator), "ring" (an open/close that never builds
// a hierarchical fabric), or "hier" (a full hierarchical exchange that
// leaves a fabric cached for the creation order).
func runHierPermuted(t *testing.T, prime string, order []int, counts [][]int) (prim.TransportBytes, int) {
	t.Helper()
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	cluster := topo.NewCluster(2, 2, topo.RTX3090, topo.DefaultLinks)
	sys := NewSystem(e, cluster, DefaultConfig())
	n := len(order)
	bar := newTestBarrier(n)
	var wire prim.TransportBytes
	for pos := 0; pos < n; pos++ {
		pos := pos
		e.Spawn("rank", func(p *sim.Process) {
			rc := sys.Init(p, order[pos])
			if prime != "none" {
				spec := prim.Spec{Kind: prim.AllReduce, Count: 16, Type: mem.Float64, Op: mem.Sum, Ranks: []int{0, 1, 2, 3}}
				if prime == "hier" {
					spec = prim.Spec{Kind: prim.AllToAll, Count: 4, Type: mem.Float64, Ranks: []int{0, 1, 2, 3}, Algo: prim.AlgoHierarchical}
				}
				c, err := rc.Open(spec)
				if err != nil {
					t.Errorf("prime open: %v", err)
					return
				}
				if prime == "hier" {
					// Run the exchange so the fabric is actually wired
					// and used for the creation order.
					send := mem.NewBuffer(mem.Float64, 16)
					recv := mem.NewBuffer(mem.Float64, 16)
					fut, err := c.Launch(p, send, recv)
					if err != nil {
						t.Errorf("prime launch: %v", err)
						return
					}
					if err := fut.Wait(p); err != nil {
						t.Errorf("prime wait: %v", err)
						return
					}
				}
				if err := c.Close(p); err != nil {
					t.Errorf("prime close: %v", err)
					return
				}
				bar.Wait(p)
			}
			spec := prim.Spec{Kind: prim.AllToAllv, Type: mem.Float64, Ranks: order, Counts: counts, Algo: prim.AlgoHierarchical}
			coll, err := rc.Open(spec)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			sendN, recvN := prim.BufferCountsFor(spec, pos)
			send := mem.NewBuffer(mem.Float64, sendN)
			recv := mem.NewBuffer(mem.Float64, recvN)
			send.Fill(float64(pos + 1))
			fut, err := coll.Launch(p, send, recv)
			if err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			if err := fut.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			wire.Add(coll.Stats().BytesSentBy)
			if err := coll.Close(p); err != nil {
				t.Errorf("close: %v", err)
			}
			rc.Destroy(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return wire, sys.CommsCreated()
}

// TestHierFabricSurvivesPooledPermutation is the regression for the
// pooled-communicator node-grouping bug: the pool rekeys by sorted
// rank set, so a hierarchical collective whose rank ORDER permutes the
// communicator's creation order must not inherit a fabric wired for
// the old order — that grouping maps ring positions to the wrong
// machines and silently misclassifies cross-node traffic as SHM. The
// permuted pooled run must report exactly the same per-transport split
// as a fresh system, while still reusing the pooled communicator.
func TestHierFabricSurvivesPooledPermutation(t *testing.T) {
	counts := [][]int{
		{2, 9, 4, 7},
		{5, 1, 3, 8},
		{6, 3, 2, 1},
		{4, 8, 5, 2},
	}
	// Order [0,2,1,3] interleaves the two machines ({0,1} and {2,3}):
	// ring positions 0,1 sit on different machines although the pooled
	// communicator was created for [0,1,2,3].
	order := []int{0, 2, 1, 3}
	fresh, freshComms := runHierPermuted(t, "none", order, counts)
	pooledRing, ringComms := runHierPermuted(t, "ring", order, counts)
	pooledHier, hierComms := runHierPermuted(t, "hier", order, counts)
	if freshComms != 1 || ringComms != 1 || hierComms != 1 {
		t.Fatalf("communicators created: fresh=%d ring-primed=%d hier-primed=%d, want 1 each (pool must still reuse)",
			freshComms, ringComms, hierComms)
	}
	if fresh != pooledRing {
		t.Fatalf("per-transport wire bytes diverge under pooled reuse (ring-primed): fresh=%+v pooled=%+v", fresh, pooledRing)
	}
	if fresh != pooledHier {
		t.Fatalf("per-transport wire bytes diverge under pooled reuse (stale cached fabric): fresh=%+v pooled=%+v", fresh, pooledHier)
	}
	// And the split itself must be right: with order [0,2,1,3] on
	// machines {0,1}/{2,3}, cross-node position pairs are exactly those
	// mixing {0,2} (ranks 0,1) and {1,3} (ranks 2,3); each cross
	// aggregate crosses one leader hop on a 2-node leader ring.
	cross := 0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			onM0 := func(pos int) bool { return order[pos] < 2 }
			if i != j && onM0(i) != onM0(j) {
				cross += counts[i][j]
			}
		}
	}
	if want := cross * 8; pooledHier.RDMA != want {
		t.Fatalf("pooled RDMA bytes = %d, want %d", pooledHier.RDMA, want)
	}
}
