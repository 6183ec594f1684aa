package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// churnConfig is a seeded Poisson burst of short jobs on two 8-GPU nodes
// under priority admission at slots jobs per GPU, the shape of the
// benchmark's cluster_churn workload; burst is the last arrival.
func churnConfig(t testing.TB, seed int64, jobs, slots int) (cfg Config, burst int64) {
	trace, err := Generate(GenConfig{Seed: seed, Jobs: jobs, Rate: 20000, MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg = Config{Cluster: topo.MultiNode3090(2), Jobs: trace, Policy: PriorityPolicy{}, SlotsPerGPU: slots, Oversub: 4}
	return cfg, int64(trace[len(trace)-1].Arrival)
}

// TestChurnKillsCommitAtTwoSlots is the requeue regression: with two
// tenants on a killed GPU, the requeued job must not find its collective
// IDs pinned by the dead rank's registrations until its attempts run
// out. Two kills land while the burst is being served, as in
// cluster_churn. Every seed commits every job.
//
//	go test ./internal/cluster -run 'TestChurnKillsCommitAtTwoSlots/seed06$'
func TestChurnKillsCommitAtTwoSlots(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			cfg, burst := churnConfig(t, seed, 200, 2)
			rng := rand.New(rand.NewSource(seed))
			cfg.Kills = []KillEvent{
				{At: sim.Duration(burst/4 + rng.Int63n(burst/4)), Rank: rng.Intn(cfg.Cluster.Size())},
				{At: sim.Duration(burst/2 + rng.Int63n(burst/2)), Rank: rng.Intn(cfg.Cluster.Size())},
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("kills %v: %v (hang=%v)", cfg.Kills, err, rep.Hang)
			}
		})
	}
}

// FuzzClusterKills runs a trace of at most 60 jobs under any slot cap
// from 1 to 3, any policy and up to four kills (a byte pair each: the
// time as a fraction of the arrival burst, and the rank). Every input
// must end in a committed run or a typed error: never a hang or panic
// (the engine reports both as Hang), never a job out of attempts.
//
//	go test ./internal/cluster -run '^$' -fuzz FuzzClusterKills -fuzztime 10s
func FuzzClusterKills(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, jobs, slots, policy uint8, kills []byte) {
		cfg, burst := churnConfig(t, seed, 1+int(jobs)%60, 1+int(slots)%3)
		cfg.Policy = []Policy{FIFO{}, PriorityPolicy{}, BinPack{}}[int(policy)%3]
		for i := 0; i+1 < len(kills) && i < 8; i += 2 {
			cfg.Kills = append(cfg.Kills, KillEvent{
				At:   sim.Duration(burst * int64(kills[i]) / 256),
				Rank: int(kills[i+1]) % cfg.Cluster.Size(),
			})
		}
		rep, err := Run(cfg)
		if rep.Hang {
			t.Fatalf("kills %v: hang: %s", cfg.Kills, rep.Err)
		}
		if err != nil && strings.Contains(err.Error(), "attempts") {
			t.Fatalf("kills %v: %v", cfg.Kills, err)
		}
	})
}
