package dfccl_test

import (
	"testing"

	"dfccl"
)

// runFabricA2A runs one 4-leader AllToAll (one rank per machine on a
// 4-node cluster, so the ring's middle hops cross the spine) under the
// given network and returns the recv buffers, the virtual end time and
// the network's per-link counters.
func runFabricA2A(t *testing.T, shared bool, oversub float64) ([]*dfccl.Buffer, dfccl.Duration, []dfccl.LinkStat) {
	t.Helper()
	const count = 65536
	c := dfccl.MultiNode3090(4)
	cfg := dfccl.DefaultConfig()
	if shared {
		cfg.Network = dfccl.SharedFabric(c, dfccl.OversubFabricConfig(oversub))
	}
	lib := dfccl.NewWithConfig(c, cfg)
	lib.SetTimeLimit(10 * dfccl.Second)
	ranks := []int{0, 8, 16, 24}
	results := make([]*dfccl.Buffer, len(ranks))
	for i, rank := range ranks {
		i, rank := i, rank
		lib.Go("rank", func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			coll, err := ctx.Open(dfccl.AllToAll(count, dfccl.Float64, ranks...))
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			send := dfccl.NewBuffer(dfccl.Float64, count*len(ranks))
			recv := dfccl.NewBuffer(dfccl.Float64, count*len(ranks))
			for j := 0; j < count*len(ranks); j++ {
				send.SetFloat64(j, float64(i*1000000+j))
			}
			results[i] = recv
			fut, err := coll.Launch(p, send, recv)
			if err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			if err := fut.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			if err := coll.Close(p); err != nil {
				t.Errorf("close: %v", err)
			}
			ctx.Destroy(p)
		})
	}
	if err := lib.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return results, lib.Now(), lib.System().Network().Snapshot()
}

// TestFabricThroughFacade drives the congestion-aware fabric through
// the public API: the same cross-spine AllToAll priced on the default
// (unshared) network and on a 2:1-oversubscribed shared fabric. The
// shared run must be slower (its two spine-crossing flows contend),
// data must be bit-identical either way, and the network's link
// snapshot must show the spine in the tier summary.
func TestFabricThroughFacade(t *testing.T) {
	base, baseEnd, baseLinks := runFabricA2A(t, false, 0)
	shared, sharedEnd, sharedLinks := runFabricA2A(t, true, 2)

	if sharedEnd <= baseEnd {
		t.Fatalf("shared fabric end %v not above unshared %v: spine contention invisible", sharedEnd, baseEnd)
	}
	for i := range base {
		a, b := base[i].Bytes(), shared[i].Bytes()
		if len(a) != len(b) {
			t.Fatalf("rank %d recv sizes differ", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("rank %d: results diverge at byte %d — pricing changed data", i, j)
			}
		}
	}
	if len(baseLinks) != 0 {
		t.Fatalf("unshared fabric reported %d link stats, want 0", len(baseLinks))
	}
	if len(sharedLinks) == 0 {
		t.Fatal("shared fabric reported no link stats")
	}
	spine := false
	for _, tu := range dfccl.FabricTierSummary(sharedLinks, dfccl.Duration(sharedEnd)) {
		if tu.Tier.String() == "spine" && tu.Bytes > 0 && tu.Saturated > 0 {
			spine = true
		}
	}
	if !spine {
		t.Fatal("tier summary shows no saturated spine traffic under 2:1 oversubscription")
	}
}
