package dfccl_test

import (
	"testing"

	"dfccl"
)

// algoTestCounts is a skewed 6-rank matrix spanning two nodes (zeros
// included) used by the facade-level algorithm tests.
var algoTestCounts = [][]int{
	{2, 9, 0, 4, 7, 1},
	{5, 1, 7, 0, 3, 8},
	{0, 3, 2, 8, 0, 6},
	{6, 0, 1, 2, 9, 0},
	{4, 8, 0, 5, 1, 3},
	{1, 0, 6, 7, 2, 4},
}

// with returns spec with its AllToAllv count matrix and algorithm set.
func with(spec dfccl.Spec, counts [][]int, algo dfccl.Algorithm) dfccl.Spec {
	spec.Counts, spec.Algo = counts, algo
	return spec
}

// runV2AllToAllv runs one AllToAllv over the facade on a 2-node
// cluster with the given algorithm, returning per-rank recv buffers
// and the summed per-transport wire bytes.
func runV2AllToAllv(t *testing.T, algo dfccl.Algorithm) ([]*dfccl.Buffer, dfccl.TransportBytes) {
	t.Helper()
	counts := algoTestCounts
	n := len(counts)
	// Ranks span both machines of a 2×8 cluster: 0-2 on machine 0,
	// 8-10 on machine 1.
	ranks := []int{0, 1, 2, 8, 9, 10}
	sum := func(get func(k int) int) int {
		s := 0
		for k := 0; k < n; k++ {
			s += get(k)
		}
		return s
	}
	lib := dfccl.New(dfccl.MultiNode3090(2))
	lib.SetTimeLimit(60 * dfccl.Second)
	recvs := make([]*dfccl.Buffer, n)
	var wire dfccl.TransportBytes
	for pos := 0; pos < n; pos++ {
		pos := pos
		lib.Go("rank", func(p *dfccl.Process) {
			ctx := lib.Init(p, ranks[pos])
			coll, err := ctx.Open(with(dfccl.AllToAllv(dfccl.Float64, ranks...), counts, algo))
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			send := dfccl.NewBuffer(dfccl.Float64, sum(func(k int) int { return counts[pos][k] }))
			recv := dfccl.NewBuffer(dfccl.Float64, sum(func(k int) int { return counts[k][pos] }))
			recvs[pos] = recv
			off := 0
			for dst := 0; dst < n; dst++ {
				for i := 0; i < counts[pos][dst]; i++ {
					send.SetFloat64(off, float64(1000*pos+100*dst+i))
					off++
				}
			}
			fut, err := coll.Launch(p, send, recv)
			if err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			if err := fut.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
			}
			wire.Add(coll.Stats().BytesSentBy)
			if err := coll.Close(p); err != nil {
				t.Errorf("close: %v", err)
			}
			ctx.Destroy(p)
		})
	}
	if err := lib.Run(); err != nil {
		t.Fatalf("Run(%v): %v", algo, err)
	}
	return recvs, wire
}

// TestV2WithAlgorithmHierarchical drives Spec.Algo end to end on a
// two-node cluster: the hierarchical exchange must deliver the exact
// ragged layout, bit-identical to the ring run, while moving strictly
// fewer RDMA bytes — the facade-level acceptance check.
func TestV2WithAlgorithmHierarchical(t *testing.T) {
	counts := algoTestCounts
	n := len(counts)
	ringRecvs, ringWire := runV2AllToAllv(t, dfccl.AlgoRing)
	hierRecvs, hierWire := runV2AllToAllv(t, dfccl.AlgoHierarchical)
	for pos := 0; pos < n; pos++ {
		off := 0
		for src := 0; src < n; src++ {
			for i := 0; i < counts[src][pos]; i++ {
				want := float64(1000*src + 100*pos + i)
				if got := hierRecvs[pos].Float64At(off); got != want {
					t.Fatalf("pos %d block from %d elem %d = %v, want %v", pos, src, i, got, want)
				}
				if got := ringRecvs[pos].Float64At(off); got != want {
					t.Fatalf("ring pos %d block from %d elem %d = %v, want %v", pos, src, i, got, want)
				}
				off++
			}
		}
	}
	if hierWire.RDMA == 0 || hierWire.RDMA >= ringWire.RDMA {
		t.Fatalf("RDMA bytes: hierarchical=%d ring=%d; want 0 < hierarchical < ring", hierWire.RDMA, ringWire.RDMA)
	}
}

// TestV2WithAlgorithmNegativePaths pins the registration-layer
// contract of Spec.Algo: unknown algorithms and unsupported
// (kind, algorithm) pairs are rejected at Open, a live collective ID
// cannot be re-registered under a different algorithm, and auto-ID
// assignment treats the algorithm as part of the spec's identity.
func TestV2WithAlgorithmNegativePaths(t *testing.T) {
	lib := dfccl.New(dfccl.Server3090(4))
	lib.SetTimeLimit(30 * dfccl.Second)
	counts := [][]int{{1, 2}, {3, 4}}
	lib.Go("driver", func(p *dfccl.Process) {
		ctx0 := lib.Init(p, 0)
		ctx1 := lib.Init(p, 1)
		// Unknown algorithm value: rejected at Open.
		if _, err := ctx0.Open(with(dfccl.AllToAllv(dfccl.Float64, 0, 1), counts, dfccl.Algorithm(42))); err == nil {
			t.Error("Open accepted an unknown algorithm")
		}
		// The rooted kinds have no hierarchical builder.
		if _, err := ctx0.Open(with(dfccl.Broadcast(64, dfccl.Float64, 0, 0, 1), nil, dfccl.AlgoHierarchical)); err == nil {
			t.Error("Open accepted a hierarchical broadcast")
		}
		if _, err := ctx0.Open(with(dfccl.Reduce(64, dfccl.Float64, dfccl.Sum, 0, 0, 1), nil, dfccl.AlgoHierarchical)); err == nil {
			t.Error("Open accepted a hierarchical reduce")
		}
		// Re-registering the same collective ID under a different
		// algorithm is a spec mismatch.
		ringColl, err := ctx0.Open(with(dfccl.AllToAllv(dfccl.Float64, 0, 1), counts, dfccl.AlgoRing), dfccl.WithCollID(7))
		if err != nil {
			t.Errorf("open ring: %v", err)
			return
		}
		if _, err := ctx1.Open(with(dfccl.AllToAllv(dfccl.Float64, 0, 1), counts, dfccl.AlgoHierarchical), dfccl.WithCollID(7)); err == nil {
			t.Error("collective 7 re-registered with a different algorithm")
		}
		// Auto-ID assignment distinguishes algorithms: the same matrix
		// opened ring vs hierarchical yields distinct collectives.
		autoRing, err := ctx1.Open(with(dfccl.AllToAllv(dfccl.Float64, 0, 1), counts, dfccl.AlgoRing))
		if err != nil {
			t.Errorf("open auto ring: %v", err)
			return
		}
		autoHier, err := ctx1.Open(with(dfccl.AllToAllv(dfccl.Float64, 0, 1), counts, dfccl.AlgoHierarchical))
		if err != nil {
			t.Errorf("open auto hierarchical: %v", err)
			return
		}
		if autoRing.ID() == autoHier.ID() {
			t.Error("auto collective IDs collide across algorithms")
		}
		for _, c := range []*dfccl.Collective{ringColl, autoRing, autoHier} {
			if err := c.Close(p); err != nil {
				t.Errorf("close: %v", err)
			}
		}
		ctx0.Destroy(p)
		ctx1.Destroy(p)
	})
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// runV2AllReduce runs one AllReduce over the facade on a two-node
// cluster with the given algorithm, returning one rank's verified
// result buffer and the summed per-transport wire bytes.
func runV2AllReduce(t *testing.T, algo dfccl.Algorithm) dfccl.TransportBytes {
	t.Helper()
	const count = 48
	ranks := []int{0, 1, 8, 9}
	lib := dfccl.New(dfccl.MultiNode3090(2))
	lib.SetTimeLimit(60 * dfccl.Second)
	var wire dfccl.TransportBytes
	for pos := range ranks {
		pos := pos
		lib.Go("rank", func(p *dfccl.Process) {
			ctx := lib.Init(p, ranks[pos])
			coll, err := ctx.Open(with(dfccl.AllReduce(count, dfccl.Float64, dfccl.Sum, ranks...), nil, algo))
			if err != nil {
				t.Errorf("open(%v): %v", algo, err)
				return
			}
			send := dfccl.NewBuffer(dfccl.Float64, count)
			recv := dfccl.NewBuffer(dfccl.Float64, count)
			for i := 0; i < count; i++ {
				send.SetFloat64(i, float64(1+(pos*31+i*7)%101))
			}
			fut, err := coll.Launch(p, send, recv)
			if err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			if err := fut.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			for i := 0; i < count; i++ {
				want := 0.0
				for q := range ranks {
					want += float64(1 + (q*31+i*7)%101)
				}
				if got := recv.Float64At(i); got != want {
					t.Errorf("%v elem %d = %v, want %v", algo, i, got, want)
					return
				}
			}
			wire.Add(coll.Stats().BytesSentBy)
			if err := coll.Close(p); err != nil {
				t.Errorf("close: %v", err)
			}
			ctx.Destroy(p)
		})
	}
	if err := lib.Run(); err != nil {
		t.Fatalf("Run(%v): %v", algo, err)
	}
	return wire
}

// TestV2WithAlgorithmAuto drives AlgoAuto end to end through the
// facade: a cross-node all-reduce — a cell the committed tuning table
// resolves to the hierarchical schedule — must produce exact sums and
// move the hierarchical run's wire bytes, not the ring's.
func TestV2WithAlgorithmAuto(t *testing.T) {
	ringWire := runV2AllReduce(t, dfccl.AlgoRing)
	hierWire := runV2AllReduce(t, dfccl.AlgoHierarchical)
	autoWire := runV2AllReduce(t, dfccl.AlgoAuto)
	if hierWire.RDMA == 0 || hierWire.RDMA >= ringWire.RDMA {
		t.Fatalf("RDMA bytes: hierarchical=%d ring=%d; want 0 < hierarchical < ring", hierWire.RDMA, ringWire.RDMA)
	}
	if autoWire != hierWire {
		t.Fatalf("auto wire bytes %+v, want the hierarchical run's %+v (table should pick hierarchical here)", autoWire, hierWire)
	}
}
