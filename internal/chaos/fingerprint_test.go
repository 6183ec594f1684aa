package chaos

import (
	"testing"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// TestChaosTimelineFingerprint pins the dispatch order of a DP run on
// 2x4 GPUs with rank 5 killed mid-run and revived later. The golden
// value was recorded on the channel-handoff engine (the parent of the
// coroutine switch); the kill, abort and re-formation paths must
// reproduce it event for event.
func TestChaosTimelineFingerprint(t *testing.T) {
	const want = 0x4d255048b31935e0
	for run := 0; run < 2; run++ {
		rep, err := Run(Config{
			Workload: "dp", Cluster: topo.MultiNode3090(2),
			Ranks: []int{0, 1, 2, 3, 4, 5, 6, 7}, Iterations: 8,
			Schedule: Schedule{
				{At: 500 * sim.Microsecond, Kind: Kill, Rank: 5},
				{At: 900 * sim.Microsecond, Kind: Revive, Rank: 5},
			},
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rep.KillsApplied != 1 || rep.RevivesApplied != 1 || rep.AbortedAttempts == 0 {
			t.Fatalf("schedule not exercised: %+v", rep)
		}
		if rep.Fingerprint != want {
			t.Errorf("run %d: fingerprint %#x, want %#x", run, rep.Fingerprint, uint64(want))
		}
	}
}
