package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
)

// TestIdleDaemonAndPollerTimeline pins what the daemon's idle poll and the
// poller's guard do to the timeline, on one pair of ranks that goes
// through every way those two loops end a wait:
//
//   - launch, idle 150 µs (under the quit period: the daemon polls an empty
//     SQ 2 µs at a time), launch again: the SQE ends the idle poll;
//   - idle 300 µs: the quit period ends it, the daemon quits, and the next
//     launch starts a new one;
//   - rank 0 alone launches three runs its peer never joins: its daemon is
//     stuck (plain pause, not the idle poll) and quits, and it is the
//     poller's guard that finds the daemon gone and relaunches it;
//   - rank 1 is killed: the kill wakes both pollers, rank 0's daemon
//     resolves the three runs to CQEs back to back into a one-slot CQ, so
//     the second and third find it full and stall until the poller drains.
//
// The golden values were recorded on the parent of the repeating waits,
// where both loops ran in their processes' bodies. An idle turn that
// forgets to count its scheduler pass moves SchedulerPass; a poller turn
// that ignores a finished daemon never relaunches it and the run hangs.
func TestIdleDaemonAndPollerTimeline(t *testing.T) {
	type outcome struct {
		Stats       [2]RankStats
		Done        [2][]sim.Time // per rank, when each run's callback ran
		Lost        int           // callbacks that reported the rank loss
		Fingerprint uint64
	}
	run := func(cqSlots int) outcome {
		var out outcome
		cfg := DefaultConfig()
		cfg.CQSlots = cqSlots
		sys := newSys(2, cfg)
		runApp(t, sys, 2, func(p *sim.Process, r *RankContext) {
			var colls [2]*Collective
			for i := range colls {
				var err error
				if colls[i], err = r.Open(prim.Spec{Kind: prim.AllReduce, Count: 256, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(2)}, WithCollID(i+1)); err != nil {
					t.Errorf("open: %v", err)
					return
				}
			}
			s := mem.NewBuffer(mem.Float32, 256)
			d := mem.NewBuffer(mem.Float32, 256)
			launch := func(c *Collective) {
				err := c.LaunchCB(p, s, d, func(err error) {
					out.Done[r.Rank] = append(out.Done[r.Rank], p.Now())
					if errors.Is(err, ErrRankLost) {
						out.Lost++
					}
				})
				if err != nil {
					t.Errorf("launch: %v", err)
				}
			}
			for _, idle := range []sim.Duration{0, 150 * sim.Microsecond, 300 * sim.Microsecond} {
				p.Sleep(idle)
				launch(colls[0])
				r.WaitAll(p)
			}
			if r.Rank == 0 {
				for i := 0; i < 3; i++ {
					launch(colls[1])
				}
			} else {
				p.Sleep(450 * sim.Microsecond)
				sys.KillRank(1)
			}
		})
		for rank := range out.Stats {
			out.Stats[rank] = sys.ranks[rank].Stats
		}
		out.Fingerprint = sys.Engine.Fingerprint()
		return out
	}
	// Recorded on the parent commit of the repeating waits (see above).
	want := outcome{
		Stats: [2]RankStats{
			{DaemonStarts: 3, VoluntaryQuits: 2, SQEsRead: 7, CQEsWritten: 6, Preemptions: 1, ContextLoads: 4, ContextSaves: 1, SchedulerPass: 181},
			{DaemonStarts: 2, VoluntaryQuits: 2, SQEsRead: 3, CQEsWritten: 3, ContextLoads: 2, SchedulerPass: 278},
		},
		Done: [2][]sim.Time{
			{41246, 213842, 555088, 1007888, 1010888, 1013888},
			{41246, 213842, 555088},
		},
		Lost:        3,
		Fingerprint: 0x6fb60a12937a5cdc,
	}
	for i := 0; i < 2; i++ {
		if got := run(1); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d:\n got %s\nwant %s", i, fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want))
		}
	}
	// The one-slot CQ is what the last three completions waited on.
	if roomy := run(DefaultConfig().CQSlots); reflect.DeepEqual(roomy.Done, want.Done) {
		t.Fatal("a 4096-slot CQ completes at the same instants: the one-slot CQ never stalled the daemon")
	}
}
