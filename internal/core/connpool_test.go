package core

import (
	"errors"
	"slices"
	"testing"

	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// connectorsHeld checks who holds the system's connectors: a
// communicator a group or a rank's registration reaches is in use, and
// each connector it holds is held by it alone and is not pooled; a free
// communicator holds none. It returns the number of connectors in use.
func connectorsHeld(t *testing.T, sys *System) int {
	t.Helper()
	var live []*communicator
	reached := map[*communicator]bool{}
	reach := func(c *communicator) {
		if !reached[c] {
			reached[c] = true
			live = append(live, c)
		}
	}
	for _, g := range sys.groups {
		reach(g.comm)
	}
	for _, rc := range sys.ranks {
		if rc != nil {
			for _, task := range rc.tasks {
				reach(task.group.comm)
			}
		}
	}
	holder := map[*mem.Connector]*communicator{}
	for _, c := range live {
		if !c.inUse {
			t.Errorf("communicator %v is reached but not in use", c.ranks)
		}
		c.wirings.EachConnector(func(conn *mem.Connector) {
			if other := holder[conn]; other != nil {
				t.Errorf("connector %s is held by communicators %v and %v", conn.Name(), other.ranks, c.ranks)
			}
			holder[conn] = c
			if conn.Pooled() {
				t.Errorf("connector %s is pooled while communicator %v holds it", conn.Name(), c.ranks)
			}
		})
	}
	for _, c := range sys.pool.free {
		c.wirings.EachConnector(func(conn *mem.Connector) {
			t.Errorf("free communicator %v holds connector %s", c.ranks, conn.Name())
		})
	}
	return len(holder)
}

// TestConnectorPoolChurn churns Open → Launch → Close over overlapping
// rank sets that shift every round, on a two-node cluster of 4 GPUs a
// node: three collectives a round, the third hierarchical. From round 8
// on every set is in reversed ring order, so that the communicators the
// pool hands back rebuild their wirings over a new order. In rounds 3, 7
// and 10 a rank is killed mid-round and revived after it. After every Open and
// at every round's end no connector is held by two communicators, none
// a communicator holds is pooled, and no free communicator holds any;
// the system builds no more connectors than were ever in use at once;
// and the communicator pool creates and reuses exactly as many
// communicators as it did while each kept its connectors.
//
// Mutants it catches: releasing an aborted group's communicator without
// draining its connectors (reset-connector-empty), pooling without Reset
// or its drain (pooled-connector-idle), giving connectors back without
// clearing the wiring's endpoints, a pool hit that does not take them
// again, and a rebuild over a new order that does not give the old
// wiring's back (70 connectors built, 22 at the peak).
func TestConnectorPoolChurn(t *testing.T) {
	const gpus, rounds, count = 8, 12, 512
	c := topo.NewCluster(2, gpus/2, topo.RTX3090, topo.DefaultLinks)
	e := sim.NewEngine()
	e.MaxTime = sim.Time(600 * sim.Second)
	sys := NewSystem(e, c, DefaultConfig())

	// sets returns round r's specs by collective ID.
	type opened struct {
		id   int
		spec prim.Spec
	}
	sets := func(r int) []opened {
		var out []opened
		for j := 0; j < 3; j++ {
			ranks := make([]int, 3+j%2)
			for i := range ranks {
				ranks[i] = (r*3 + j*2 + i) % gpus
			}
			if r >= 8 {
				for i, k := 0, len(ranks)-1; i < k; i, k = i+1, k-1 {
					ranks[i], ranks[k] = ranks[k], ranks[i]
				}
			}
			spec := lifecycleSpec(count, ranks)
			if j == 2 {
				spec.Algo = prim.AlgoHierarchical
			}
			out = append(out, opened{id: 1 + 10*r + j, spec: spec})
		}
		return out
	}
	victimOf := func(r int) int {
		switch r {
		case 3, 7, 10:
			return (r*3 + 1) % gpus
		}
		return -1
	}

	peak := 0
	endRound := newTestBarrier(gpus + 1)
	revived := newTestBarrier(gpus + 1)
	for rank := 0; rank < gpus; rank++ {
		e.Spawn("churn", func(p *sim.Process) {
			for r := 0; r < rounds; r++ {
				rc := sys.Init(p, rank) // a revived rank's context is new
				var colls []*Collective
				var futs []*Future
				for _, o := range sets(r) {
					if !slices.Contains(o.spec.Ranks, rank) {
						continue
					}
					coll, err := rc.Open(o.spec, WithCollID(o.id))
					if err != nil {
						if !errors.Is(err, ErrRankLost) && !sys.RankLost(rank) {
							t.Errorf("round %d rank %d open %d: %v", r, rank, o.id, err)
						}
						continue
					}
					peak = max(peak, connectorsHeld(t, sys))
					colls = append(colls, coll)
				}
				for _, coll := range colls {
					s, d := mem.NewBuffer(mem.Float64, count), mem.NewBuffer(mem.Float64, count)
					s.Fill(1)
					fut, err := coll.Launch(p, s, d)
					if err != nil {
						if !errors.Is(err, ErrRankLost) {
							t.Errorf("round %d rank %d launch %d: %v", r, rank, coll.ID(), err)
						}
						continue
					}
					futs = append(futs, fut)
				}
				for _, fut := range futs {
					if err := fut.Wait(p); err != nil && !errors.Is(err, ErrRankLost) {
						t.Errorf("round %d rank %d wait: %v", r, rank, err)
					}
				}
				if !sys.RankLost(rank) {
					for _, coll := range colls {
						if err := coll.Close(p); err != nil {
							t.Errorf("round %d rank %d close %d: %v", r, rank, coll.ID(), err)
						}
					}
				}
				endRound.Wait(p)
				revived.Wait(p)
			}
			if rc := sys.Init(p, rank); !rc.lost {
				rc.Destroy(p)
			}
		})
	}
	e.Spawn("chaos", func(p *sim.Process) {
		for r := 0; r < rounds; r++ {
			v := victimOf(r)
			if v >= 0 {
				p.Sleep(sim.Duration(5+3*r) * sim.Microsecond)
				sys.KillRank(v)
			}
			endRound.Wait(p)
			if v >= 0 {
				for sys.ranks[v].Outstanding() > 0 {
					p.Sleep(sim.Microsecond)
				}
				if err := sys.ReviveRank(v); err != nil {
					t.Errorf("round %d revive %d: %v", r, v, err)
				}
			}
			connectorsHeld(t, sys)
			revived.Wait(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v (blocked: %v)", err, e.BlockedProcesses())
	}
	if sys.kills != 3 || sys.aborts == 0 {
		t.Errorf("%d kills aborted %d groups, want 3 kills that abort a group", sys.kills, sys.aborts)
	}
	if held := connectorsHeld(t, sys); held != 0 || sys.NumRegistered() != 0 {
		t.Errorf("%d connectors held and %d collectives registered after teardown, want none", held, sys.NumRegistered())
	}
	built := sys.pool.conns.Made()
	t.Logf("%d connectors built, %d in use at the peak; %d communicators created, %d reused", built, peak, sys.CommsCreated(), sys.CommsReused())
	if built > peak {
		t.Errorf("%d connectors built, more than the %d ever in use at once", built, peak)
	}
	if created, reused := sys.CommsCreated(), sys.CommsReused(); created != churnCommsCreated || reused != churnCommsReused {
		t.Errorf("%d communicators created and %d reused, want %d and %d", created, reused, churnCommsCreated, churnCommsReused)
	}
}

// The communicators TestConnectorPoolChurn creates and reuses, measured
// while every communicator kept its connectors: borrowing them changes
// neither.
const churnCommsCreated, churnCommsReused = 16, 20
