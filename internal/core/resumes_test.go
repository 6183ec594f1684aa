package core

import (
	"testing"

	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
)

// TestResumesPerRankLaunch pins what a launch costs in coroutine switches:
// 8 ranks relaunch one 1 024-float all-reduce in lock-step (the benchmark's
// ordered_small), and the 50 launches after the first ten may resume a
// process at most 12 times per rank and launch. 14 primitives run in each,
// on the engine's stack (prim.Runner): what is left is the rank's launch
// and wake-up, the poller's drain and callback, and the daemon's own
// sleeps (SQE read and parse, the outcome of the run, the CQE write).
// While the daemon made every primitive's waits in its own body the count
// was 49.5 by this measure.
func TestResumesPerRankLaunch(t *testing.T) {
	const n = 8
	resumes := func(launches int) uint64 {
		sys := newSys(n, DefaultConfig())
		runApp(t, sys, n, func(p *sim.Process, r *RankContext) {
			coll, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: 1024, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(n)}, WithCollID(1))
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			s := mem.NewBuffer(mem.DeviceSpace, mem.Float32, 1024)
			d := mem.NewBuffer(mem.DeviceSpace, mem.Float32, 1024)
			for it := 0; it < launches; it++ {
				if err := coll.LaunchCB(p, s, d, nil); err != nil {
					t.Errorf("launch: %v", err)
					return
				}
				r.WaitAll(p)
			}
		})
		return sys.Engine.Resumes()
	}
	per := float64(resumes(60)-resumes(10)) / (50 * n)
	t.Logf("%.2f resumes per rank-launch", per)
	if per > 12 {
		t.Fatalf("%.2f coroutine resumes per rank-launch, want at most 12", per)
	}
}
