package workload

import (
	"fmt"
	"testing"

	"dfccl/internal/core"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// TestFaultFreeAttemptMatchesRefHash runs one fault-free attempt of
// every workload kind, untagged (job 0, auto collective IDs) and under
// two tenant job IDs, over 4 ranks: the lead's committed fingerprints
// must equal the pure out-of-sim RefHash, and distinct tenants must not
// carry the same data.
func TestFaultFreeAttemptMatchesRefHash(t *testing.T) {
	const iters = 3
	members := []int{0, 1, 2, 3}
	for _, kind := range []string{"dp", "moe", "zero", "hybrid"} {
		seen := map[string]int{}
		for _, job := range []int{0, 3, 7} {
			t.Run(fmt.Sprintf("%s/job%d", kind, job), func(t *testing.T) {
				tenant := Tenant{Job: job, Priority: job, Layers: 2}
				e := sim.NewEngine()
				e.MaxTime = sim.Time(10 * sim.Second)
				sys := core.NewSystem(e, topo.Server3090(4), core.DefaultConfig())
				var pr Progress
				att := NewAttempt(members, iters, 20*sim.Microsecond, &pr, nil)
				for pos, rank := range members {
					e.Spawn(fmt.Sprintf("member%d", rank), func(p *sim.Process) {
						w, err := New(kind, tenant)
						if err != nil {
							t.Error(err)
							return
						}
						rc := sys.Init(p, rank)
						att.Member(p, rc, w, pos)
						w.Teardown(p)
						rc.Destroy(p)
					})
				}
				if err := e.Run(); err != nil {
					t.Fatalf("Run: %v (blocked: %v)", err, e.BlockedProcesses())
				}
				if att.Aborted || att.Err != nil || att.TypedErrors != 0 {
					t.Fatalf("fault-free attempt failed: aborted=%v typed=%d err=%v", att.Aborted, att.TypedErrors, att.Err)
				}
				if pr.Next != iters || len(pr.Hashes) != iters || len(pr.Trajectory) != iters {
					t.Fatalf("committed %d iterations (%d hashes, %d memberships), want %d", pr.Next, len(pr.Hashes), len(pr.Trajectory), iters)
				}
				w, _ := New(kind, tenant)
				ref, identical := pr.Reference(w)
				if !identical {
					t.Fatalf("lead hashes %x != reference %x", pr.Hashes, ref)
				}
				key := fmt.Sprint(pr.Hashes)
				if other, dup := seen[key]; dup {
					t.Errorf("job %d and job %d produced the same fingerprints %s", job, other, key)
				}
				seen[key] = job
				if n := sys.NumRegistered(); n != 0 {
					t.Errorf("%d collectives still registered after teardown", n)
				}
			})
		}
	}
	if _, err := New("pipeline", Tenant{}); err == nil {
		t.Error("unknown kind accepted")
	}
}
