package prim

import (
	"fmt"
	"testing"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// abortState is an executor checkpoint snapshot: the positions the
// abort contract promises to leave untouched.
type abortState struct {
	Stage, Round, Step, Phase, BytesSent int
}

func snapState(x *Executor) abortState {
	return abortState{x.Stage, x.Round, x.Step, x.Phase, x.BytesSentBy.Total()}
}

// victimTrajectory runs the hierarchical exchange fault-free and
// returns the victim's checkpoint state before each of its StepOnce
// calls — the full (stage, round, step) table a kill can land on.
func victimTrajectory(t *testing.T, c *topo.Cluster, spec Spec, victim int) []abortState {
	t.Helper()
	fab := buildHier(new(mem.Chunks), nil, fabric.Unshared(c), spec.Ranks, "ta")
	n := spec.N()
	execs := make([]*Executor, n)
	for i := 0; i < n; i++ {
		sendCount, recvCount := BufferCountsFor(spec, i)
		s := mem.NewBuffer(spec.Type, sendCount)
		fillV(spec.Counts, i, s)
		execs[i] = fab.ExecutorFor(c, spec, i, s, mem.NewBuffer(spec.Type, recvCount))
	}
	var traj []abortState
	e := sim.NewEngine()
	for i := 0; i < n; i++ {
		i, x := i, execs[i]
		e.Spawn("rank", func(p *sim.Process) {
			for {
				if i == victim {
					traj = append(traj, snapState(x))
				}
				if x.StepOnce(p, -1) == Done {
					return
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	return traj
}

// TestHierAbortCheckpointTable is the kill table for hierarchical
// AllToAllv: for two victim positions (node leader and non-leader) and
// for EVERY checkpoint (stage, round, step) in the victim's fault-free
// trajectory, the victim dies after exactly that many steps. The
// survivors — whose AbortCheck turns true at that instant — must each
// finish Done or return Aborted with no hang, and a repeated StepOnce
// after Aborted must return Aborted again with the checkpoint
// (Stage, Round, Step, Phase) and byte counters bit-identical: abort is
// observed only at the executor's preempt/resume checkpoints, never
// mid-primitive.
func TestHierAbortCheckpointTable(t *testing.T) {
	counts := [][]int{
		{2, 9, 4, 5},
		{7, 1, 6, 3},
		{0, 8, 2, 9},
		{5, 3, 7, 1},
	}
	c := topo.NewCluster(2, 2, topo.RTX3090, topo.DefaultLinks)
	spec := hierSpec(counts, 4)
	for _, victim := range []int{0, 3} { // node-0 leader; node-1 non-leader
		victim := victim
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) {
			traj := victimTrajectory(t, c, spec, victim)
			if len(traj) < 4 {
				t.Fatalf("victim trajectory only %d steps; table would be vacuous", len(traj))
			}
			// Coverage: killing after every step index visits every
			// (stage, round) pair of the victim's sequence.
			visited := map[[2]int]bool{}
			for _, st := range traj {
				visited[[2]int{st.Stage, st.Round}] = true
			}
			seq := spec.HierSequenceFor(victim, GroupByNode(c, spec.Ranks))
			for sIdx, stage := range seq.Stages(victim) {
				for r := 0; r < stage.Rounds; r++ {
					if !visited[[2]int{sIdx, r}] {
						t.Fatalf("trajectory never visits stage %d (%s) round %d", sIdx, stage.Label, r)
					}
				}
			}

			for kill := 0; kill < len(traj); kill++ {
				kill := kill
				fab := buildHier(new(mem.Chunks), nil, fabric.Unshared(c), spec.Ranks, "tk")
				n := spec.N()
				execs := make([]*Executor, n)
				dead := false
				for i := 0; i < n; i++ {
					sendCount, recvCount := BufferCountsFor(spec, i)
					s := mem.NewBuffer(spec.Type, sendCount)
					fillV(spec.Counts, i, s)
					execs[i] = fab.ExecutorFor(c, spec, i, s, mem.NewBuffer(spec.Type, recvCount))
					if i != victim {
						execs[i].AbortCheck = func() bool { return dead }
					}
				}
				e := sim.NewEngine()
				e.MaxTime = sim.Time(60 * sim.Second) // hang -> test failure, not CI timeout
				vx := execs[victim]
				e.Spawn("victim", func(p *sim.Process) {
					for i := 0; i < kill; i++ {
						if vx.StepOnce(p, -1) == Done {
							break
						}
					}
					dead = true
					fab.WakeAll(p.Engine())
				})
				results := make([]StepResult, n)
				for i := 0; i < n; i++ {
					if i == victim {
						continue
					}
					i, x := i, execs[i]
					e.Spawn("survivor", func(p *sim.Process) {
						for {
							r := x.StepOnce(p, -1)
							if r == Done || r == Aborted {
								results[i] = r
								break
							}
						}
						if results[i] != Aborted {
							return
						}
						// Abort idempotence: the checkpoint is frozen.
						before := snapState(x)
						if r := x.StepOnce(p, -1); r != Aborted {
							t.Errorf("kill@%d survivor %d: StepOnce after abort = %v, want Aborted", kill, i, r)
						}
						if after := snapState(x); after != before {
							t.Errorf("kill@%d survivor %d: abort moved checkpoint %+v -> %+v", kill, i, before, after)
						}
						if x.Stage > x.Seq.NumStages(x.Pos) {
							t.Errorf("kill@%d survivor %d: stage %d out of range", kill, i, x.Stage)
						}
					})
				}
				if err := e.Run(); err != nil {
					t.Fatalf("kill@%d (victim state %+v): %v", kill, traj[kill], err)
				}
				for i := 0; i < n; i++ {
					if i != victim && results[i] != Done && results[i] != Aborted {
						t.Fatalf("kill@%d survivor %d ended %v, want Done or Aborted", kill, i, results[i])
					}
				}
				// Killing before the victim moved anything must abort
				// every survivor that depends on it; at minimum, not all
				// survivors can complete when the victim never ran.
				if kill == 0 {
					done := 0
					for i := 0; i < n; i++ {
						if i != victim && results[i] == Done {
							done++
						}
					}
					if done == n-1 {
						t.Fatalf("kill@0: all survivors finished without the victim")
					}
				}
			}
		})
	}
}
