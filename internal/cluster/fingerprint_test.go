package cluster

import (
	"testing"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// TestClusterTimelineFingerprint pins the dispatch order of a 20-job
// Poisson burst under priority admission with one rank killed while the
// burst is being served. The golden value was re-recorded when a fabric
// flow stopped being woken by solves that leave its rate alone: fewer
// wakes are fewer dispatches, and the ones left take other sequence
// numbers. Admission, abort and requeue must reproduce it event for event.
func TestClusterTimelineFingerprint(t *testing.T) {
	const want = 0xb2dda0668eeb882a
	jobs, err := Generate(GenConfig{Seed: 1, Jobs: 20, Rate: 20000, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	kill := KillEvent{At: jobs[len(jobs)-1].Arrival / 4, Rank: 3}
	for run := 0; run < 2; run++ {
		rep, err := Run(Config{
			Cluster: topo.MultiNode3090(2), Jobs: jobs, Policy: PriorityPolicy{},
			SlotsPerGPU: 1, Oversub: 4, Kills: []KillEvent{kill},
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if rep.KillsApplied != 1 || rep.Requeues == 0 {
			t.Fatalf("kill at %v applied %d times with %d requeues; want 1 and > 0",
				sim.Duration(kill.At), rep.KillsApplied, rep.Requeues)
		}
		if rep.Fingerprint != want {
			t.Errorf("run %d: fingerprint %#x, want %#x", run, rep.Fingerprint, uint64(want))
		}
	}
}
