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
// process at most twice per rank and launch. Those two are the rank's own:
// its launch (the SQE write's sleep) and its wake-up from WaitAll. The
// daemon kernel and the poller are machines whose every turn runs on the
// engine's stack, and so are the 14 primitives of each run (prim.Runner);
// their processes are resumed only to start and to end, which lock-step
// relaunch does not do. It was 49.5 while the daemon made every
// primitive's waits in its own body, and 11 while it and the poller made
// their own.
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
			s := mem.NewBuffer(mem.Float32, 1024)
			d := mem.NewBuffer(mem.Float32, 1024)
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
	if per > 2 {
		t.Fatalf("%.2f coroutine resumes per rank-launch, want at most 2", per)
	}
}
