package orch

import (
	"testing"

	"dfccl/internal/core"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// TestBackendsRouteHierarchicalAllToAllv drives an AlgoHierarchical
// AllToAllv through the DFCCL and NCCL-backed orchestrators on a
// two-node cluster with caller-owned buffers: every backend must build
// hierarchical executors from the spec and deliver the exact ragged
// layout.
func TestBackendsRouteHierarchicalAllToAllv(t *testing.T) {
	counts := [][]int{
		{1, 12, 0, 7},
		{4, 2, 9, 3},
		{0, 5, 3, 8},
		{6, 1, 2, 4},
	}
	const n = 4
	for _, which := range []string{"dfccl", "static"} {
		e := sim.NewEngine()
		e.MaxTime = sim.Time(600 * sim.Second)
		cluster := topo.NewCluster(2, 2, topo.RTX3090, topo.DefaultLinks)
		var b Backend
		if which == "dfccl" {
			b = NewDFCCL(e, cluster, core.DefaultConfig())
		} else {
			b = NewStaticSort(e, cluster)
		}
		ranks := []int{0, 1, 2, 3}
		spec := prim.Spec{Kind: prim.AllToAllv, Type: mem.Float64, Ranks: ranks, Counts: counts, Algo: prim.AlgoHierarchical}
		recvs := make([]*mem.Buffer, n)
		for rank := 0; rank < n; rank++ {
			rank := rank
			e.Spawn("drive", func(p *sim.Process) {
				sendN, recvN := prim.BufferCountsFor(spec, rank)
				send := mem.NewBuffer(mem.Float64, sendN)
				recv := mem.NewBuffer(mem.Float64, recvN)
				recvs[rank] = recv
				off := 0
				for dst := 0; dst < n; dst++ {
					for i := 0; i < counts[rank][dst]; i++ {
						send.SetFloat64(off, float64(100*rank+10*dst+i))
						off++
					}
				}
				if err := b.Register(p, rank, 42, spec, 0, send, recv); err != nil {
					t.Errorf("%s register data: %v", which, err)
					return
				}
				if err := b.Launch(p, rank, 42); err != nil {
					t.Errorf("%s launch: %v", which, err)
					return
				}
				b.Wait(p, rank, 42)
				b.Teardown(p, rank)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
		for pos := 0; pos < n; pos++ {
			off := 0
			for src := 0; src < n; src++ {
				for i := 0; i < counts[src][pos]; i++ {
					want := float64(100*src + 10*pos + i)
					if got := recvs[pos].Float64At(off); got != want {
						t.Fatalf("%s pos %d block from %d elem %d = %v, want %v", which, pos, src, i, got, want)
					}
					off++
				}
			}
		}
	}
}

// TestRegisterRejectsAlgorithmMismatch pins the registration contract:
// a live collective ID cannot be re-registered under a different
// algorithm (the fingerprint covers Spec.Algo), on both backend
// families.
func TestRegisterRejectsAlgorithmMismatch(t *testing.T) {
	counts := [][]int{{1, 2}, {3, 4}}
	ranks := []int{0, 1}
	ringSpec := prim.Spec{Kind: prim.AllToAllv, Type: mem.Float64, Ranks: ranks, Counts: counts}
	hierSpec := ringSpec
	hierSpec.Algo = prim.AlgoHierarchical
	for _, which := range []string{"dfccl", "static"} {
		e := sim.NewEngine()
		cluster := topo.Server3090(2)
		var b Backend
		if which == "dfccl" {
			b = NewDFCCL(e, cluster, core.DefaultConfig())
		} else {
			b = NewStaticSort(e, cluster)
		}
		e.Spawn("drive", func(p *sim.Process) {
			if err := b.Register(p, 0, 9, ringSpec, 0, nil, nil); err != nil {
				t.Errorf("%s register ring: %v", which, err)
				return
			}
			if err := b.Register(p, 1, 9, hierSpec, 0, nil, nil); err == nil {
				t.Errorf("%s re-registered collective 9 under a different algorithm", which)
			}
			b.Teardown(p, 0)
			b.Teardown(p, 1)
		})
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
	}
}
