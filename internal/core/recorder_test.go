package core

import (
	"errors"
	"testing"

	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// TestTracingUnderFaults pins the flight recorder's chaos-path
// behavior: a rank killed mid-collective leaves a MarkKill and a
// MarkAbort on the timeline, the aborted collective's span stream is
// frozen exactly at each executor's cursor (span count per GPU equals
// that executor's PrimsExecuted, strictly below a full run), the
// survivors' Reform leaves MarkReform marks and the re-formed
// collective emits fresh spans under its new ID, the end-of-run revive
// leaves a MarkRevive — and through all of it the byte and span
// reconciliation against the executors' own accounting stays exact.
func TestTracingUnderFaults(t *testing.T) {
	const n, count, victim, collID = 4, 1 << 16, 2, 7
	e := sim.NewEngine()
	e.MaxTime = sim.Time(300 * sim.Second)
	rec := &trace.Recorder{}
	cfg := DefaultConfig()
	cfg.Recorder = rec
	sys := NewSystem(e, topo.Server3090(n), cfg)
	ranks := []int{0, 1, 2, 3}

	abortedPrims := make([]int, n) // frozen cursor per survivor GPU
	abortedWant := make([]int, n)  // full-run primitive count
	reformedID := make([]int, n)   // the re-formed collective's ID
	for i := range reformedID {
		reformedID[i] = -1
	}

	for rank := 0; rank < n; rank++ {
		rank := rank
		e.Spawn("traced", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			coll, err := rc.Open(lifecycleSpec(count, ranks), WithCollID(collID))
			if err != nil {
				t.Errorf("rank %d open: %v", rank, err)
				return
			}
			s := mem.NewBuffer(mem.Float64, count)
			d := mem.NewBuffer(mem.Float64, count)
			s.Fill(float64(rank + 1))
			fut, err := coll.Launch(p, s, d)
			if err != nil {
				t.Errorf("rank %d launch: %v", rank, err)
				return
			}
			if err := fut.Wait(p); !errors.Is(err, ErrRankLost) {
				t.Errorf("rank %d wait err = %v, want ErrRankLost", rank, err)
			}
			if rank == victim {
				return
			}
			st := coll.Stats()
			abortedPrims[rank] = st.PrimsExecuted
			abortedWant[rank] = st.NumPrimitives
			re, err := coll.Reform(p)
			if err != nil {
				t.Errorf("rank %d reform: %v", rank, err)
				return
			}
			reformedID[rank] = re.ID()
			s.Fill(float64(rank + 1))
			fut2, err := re.Launch(p, s, d)
			if err != nil {
				t.Errorf("rank %d relaunch: %v", rank, err)
				return
			}
			if err := fut2.Wait(p); err != nil {
				t.Errorf("rank %d reformed wait: %v", rank, err)
				return
			}
			if err := re.Close(p); err != nil {
				t.Errorf("rank %d close: %v", rank, err)
			}
			rc.Destroy(p)
		})
	}
	e.Spawn("chaos", func(p *sim.Process) {
		p.Sleep(30 * sim.Microsecond)
		sys.KillRank(victim)
		// Revive once the victim's abort has fully drained (ReviveRank
		// refuses while the dead rank has outstanding work).
		for sys.ReviveRank(victim) != nil {
			p.Sleep(5 * sim.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v (blocked: %v)", err, e.BlockedProcesses())
	}

	// Chaos marks: one kill, one revive, an abort naming the collective.
	if got := rec.MarkCount(trace.MarkKill); got != 1 {
		t.Errorf("MarkKill count = %d, want 1", got)
	}
	if got := rec.MarkCount(trace.MarkRevive); got != 1 {
		t.Errorf("MarkRevive count = %d, want 1", got)
	}
	abortSeen := false
	for _, m := range rec.Marks {
		switch m.Kind {
		case trace.MarkKill, trace.MarkRevive:
			if m.GPU != victim {
				t.Errorf("%v mark on GPU %d, want %d", m.Kind, m.GPU, victim)
			}
		case trace.MarkAbort:
			if m.Coll == collID {
				abortSeen = true
			}
		}
	}
	if !abortSeen {
		t.Errorf("no MarkAbort for coll %d in %d marks", collID, len(rec.Marks))
	}
	// One Reform mark per survivor, pointing at the new collective.
	if got, want := rec.MarkCount(trace.MarkReform), n-1; got != want {
		t.Errorf("MarkReform count = %d, want %d", got, want)
	}

	// Frozen cursor: the aborted collective's spans stop exactly where
	// each surviving executor stopped, strictly short of a full run.
	perGPU := make(map[int]int)
	newCollSpans := 0
	for _, a := range rec.Actions {
		if a.Coll == collID {
			perGPU[a.GPU]++
		}
		if reformedID[0] >= 0 && a.Coll == reformedID[0] {
			newCollSpans++
		}
	}
	for rank := 0; rank < n; rank++ {
		if rank == victim {
			continue
		}
		if abortedPrims[rank] >= abortedWant[rank] {
			t.Errorf("rank %d executed %d of %d primitives; kill did not land mid-run",
				rank, abortedPrims[rank], abortedWant[rank])
		}
		if perGPU[rank] != abortedPrims[rank] {
			t.Errorf("rank %d aborted-coll spans = %d, want frozen cursor %d",
				rank, perGPU[rank], abortedPrims[rank])
		}
	}

	// Reform/relaunch spans: all survivors converged on one new ID and
	// its clean run emitted spans.
	for rank := 1; rank < n; rank++ {
		if rank != victim && reformedID[rank] != reformedID[0] {
			t.Errorf("rank %d reformed ID %d != rank 0's %d", rank, reformedID[rank], reformedID[0])
		}
	}
	if newCollSpans == 0 {
		t.Errorf("no action spans for re-formed coll %d", reformedID[0])
	}

	// Reconciliation survives the abort: the recorder and the executors'
	// byte accounting agree exactly, span-for-primitive.
	local, shm, rdma := rec.SendBytesBy()
	m := sys.Metrics()
	if int64(local) != m["prim.bytes_local"] || int64(shm) != m["prim.bytes_shm"] || int64(rdma) != m["prim.bytes_rdma"] {
		t.Errorf("trace bytes (local %d, shm %d, rdma %d) != accounting %v",
			local, shm, rdma, m)
	}
	if got, want := int64(len(rec.Actions)), m["prim.prims_executed"]; got != want {
		t.Errorf("action spans = %d, want prim.prims_executed %d", got, want)
	}
}
