package chaos

import (
	"fmt"
	"math/rand"
	"testing"

	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// TestChaosFaultFree pins the harness baseline: with an empty schedule
// every workload commits all iterations in one attempt, bit-identical
// to the serial reference.
func TestChaosFaultFree(t *testing.T) {
	for _, wl := range []string{"dp", "moe", "zero", "hybrid"} {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			rep, err := Run(Config{
				Workload:   wl,
				Cluster:    topo.Server3090(4),
				Ranks:      []int{0, 1, 2, 3},
				Iterations: 3,
				Algo:       prim.AlgoRing,
			})
			if err != nil {
				t.Fatalf("Run: %v (report %+v)", err, rep)
			}
			if rep.Attempts != 1 || rep.Committed != 3 || !rep.BitIdentical {
				t.Fatalf("fault-free report %+v: want 1 attempt, 3 committed, bit-identical", rep)
			}
			if rep.MembershipChanged() {
				t.Fatalf("fault-free run changed membership: %v", rep.Trajectory)
			}
		})
	}
}

// TestChaosKillMidRun kills one rank mid-run for each workload: the
// fault must surface as typed errors, the group re-forms over the
// survivors, and the remaining iterations commit bit-identical to the
// reference for the shrunken membership.
func TestChaosKillMidRun(t *testing.T) {
	for _, wl := range []string{"dp", "moe", "zero", "hybrid"} {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			rep, err := Run(Config{
				Workload:   wl,
				Cluster:    topo.Server3090(4),
				Ranks:      []int{0, 1, 2, 3},
				Iterations: 4,
				Algo:       prim.AlgoRing,
				Schedule:   Schedule{{At: 500 * sim.Microsecond, Kind: Kill, Rank: 2}},
			})
			if err != nil {
				t.Fatalf("Run: %v (report %+v)", err, rep)
			}
			if rep.KillsApplied != 1 {
				t.Fatalf("kill not applied: %+v", rep)
			}
			if rep.AbortedAttempts < 1 || rep.TypedErrors < 1 {
				t.Fatalf("kill never surfaced as a typed abort: %+v", rep)
			}
			if !rep.MembershipChanged() {
				t.Fatalf("membership never changed after kill: trajectory %v", rep.Trajectory)
			}
			last := rep.Trajectory[len(rep.Trajectory)-1]
			if len(last) != 3 {
				t.Fatalf("final membership %v, want 3 survivors", last)
			}
		})
	}
}

// TestChaosKillReviveHier runs the MoE workload on a hierarchical
// dispatch over two nodes with a kill followed by a revive: routing
// (via the runtime count gather) must survive both membership changes,
// and the revived rank must rejoin the committed trajectory.
func TestChaosKillReviveHier(t *testing.T) {
	rep, err := Run(Config{
		Workload:   "moe",
		Cluster:    topo.MultiNode3090(2),
		Ranks:      []int{0, 1, 8, 9},
		Iterations: 6,
		Algo:       prim.AlgoHierarchical,
		Schedule: Schedule{
			{At: 200 * sim.Microsecond, Kind: Kill, Rank: 9},
			{At: 500 * sim.Microsecond, Kind: Revive, Rank: 9},
		},
	})
	if err != nil {
		t.Fatalf("Run: %v (report %+v)", err, rep)
	}
	if rep.KillsApplied != 1 || rep.RevivesApplied != 1 {
		t.Fatalf("schedule not applied: %+v", rep)
	}
	if !rep.MembershipChanged() {
		t.Fatalf("membership never changed: %v", rep.Trajectory)
	}
	// The revived rank must appear in a committed iteration again.
	rejoined := false
	for _, members := range rep.Trajectory {
		for _, m := range members {
			if m == 9 && len(members) == 4 {
				rejoined = true
			}
		}
	}
	if !rejoined {
		t.Fatalf("rank 9 never rejoined after revive: %v", rep.Trajectory)
	}
}

// TestChaosProperty is the seeded-random sweep: ≥40 cases of random
// cluster shapes × random rank subsets × random workloads (DP, MoE
// under ring AND hierarchical dispatch, ZeRO) × random kill/revive
// schedules. Every case must commit all iterations bit-identical to
// the serial fault-free reference over its committed membership
// trajectory, with every mid-run fault surfacing as a typed
// ErrRankLost abort or a clean re-formation — no hangs (the engine's
// MaxTime turns any into a failure), no silent corruption (every
// element is verified in-run).
func TestChaosProperty(t *testing.T) {
	workloads := []string{"dp", "moe", "zero"}
	algos := []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical}
	rng := rand.New(rand.NewSource(20260807))
	const trials = 44
	aborts, reforms := 0, 0
	for trial := 0; trial < trials; trial++ {
		machines := 1 + rng.Intn(2)
		perNode := 1 + rng.Intn(4)
		cluster := topo.NewCluster(machines, perNode, topo.RTX3090, topo.DefaultLinks)
		total := machines * perNode
		n := total
		if n > 2 {
			n = 2 + rng.Intn(total-1)
		}
		if n < 2 {
			// Single-GPU shapes can't host a kill; keep them but
			// fault-free.
			n = total
		}
		ranks := append([]int(nil), rng.Perm(total)[:n]...)
		iters := 2 + rng.Intn(3)
		var schedule Schedule
		maxKills := n - 1
		if maxKills > 2 {
			maxKills = 2
		}
		kills := 0
		if maxKills > 0 {
			kills = rng.Intn(maxKills + 1)
		}
		horizon := sim.Duration(iters) * 250 * sim.Microsecond
		victims := rng.Perm(n)[:kills]
		for _, v := range victims {
			at := sim.Duration(rng.Int63n(int64(horizon)))
			schedule = append(schedule, Event{At: at, Kind: Kill, Rank: ranks[v]})
			if rng.Intn(2) == 0 {
				rev := at + sim.Duration(rng.Int63n(int64(horizon)))
				schedule = append(schedule, Event{At: rev, Kind: Revive, Rank: ranks[v]})
			}
		}
		cfg := Config{
			Workload:   workloads[rng.Intn(len(workloads))],
			Cluster:    cluster,
			Ranks:      ranks,
			Iterations: iters,
			Algo:       algos[rng.Intn(len(algos))],
			Schedule:   schedule,
		}
		name := fmt.Sprintf("trial%d-%s-%s-m%d-g%d-n%d-k%d", trial, cfg.Workload, cfg.Algo, machines, perNode, n, kills)
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v (report %+v, schedule %+v)", name, err, rep, schedule)
		}
		if rep.Hang {
			t.Fatalf("%s: hang (report %+v)", name, rep)
		}
		if !rep.BitIdentical || rep.Committed != iters {
			t.Fatalf("%s: committed %d/%d, bit-identical %v", name, rep.Committed, iters, rep.BitIdentical)
		}
		aborts += rep.AbortedAttempts
		reforms += rep.InterruptedAttempts
	}
	// The sweep must genuinely exercise the fault machinery: a kill that
	// lands after the last commit is legitimately invisible, but across
	// 44 seeded schedules many must land mid-run.
	if aborts < 5 {
		t.Fatalf("only %d aborted attempts across %d trials; the sweep exercised almost no faults", aborts, trials)
	}
	if reforms < 1 {
		t.Fatalf("no revive-driven re-formation across %d trials", trials)
	}
}
