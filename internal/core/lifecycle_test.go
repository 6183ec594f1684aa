package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// testBarrier synchronizes n simulated processes (local copy of the
// bench harness barrier; core cannot import bench).
type testBarrier struct {
	n, arrived, gen int
	cond            *sim.Cond
}

func newTestBarrier(n int) *testBarrier {
	return &testBarrier{n: n, cond: sim.NewCond("test.barrier")}
}

func (b *testBarrier) Wait(p *sim.Process) {
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast(p.Engine())
		return
	}
	for gen == b.gen {
		b.cond.Wait(p)
	}
}

func lifecycleSpec(count int, ranks []int) prim.Spec {
	return prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float64, Op: mem.Sum, Ranks: ranks}
}

// TestCommPoolReuse churns open → launch → wait → close across many
// distinct collective IDs over the same rank set and asserts the pool
// recycles the one communicator: Created() stays flat at 1.
func TestCommPoolReuse(t *testing.T) {
	const n, cycles, count = 2, 6, 64
	e := sim.NewEngine()
	e.MaxTime = sim.Time(120 * sim.Second)
	sys := NewSystem(e, topo.Server3090(n), DefaultConfig())
	ranks := []int{0, 1}
	bar := newTestBarrier(n)
	for rank := 0; rank < n; rank++ {
		rank := rank
		e.Spawn("churn", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			for cy := 0; cy < cycles; cy++ {
				coll, err := rc.Open(lifecycleSpec(count, ranks), WithCollID(100+cy))
				if err != nil {
					t.Errorf("cycle %d open: %v", cy, err)
					return
				}
				s := mem.NewBuffer(mem.Float64, count)
				d := mem.NewBuffer(mem.Float64, count)
				s.Fill(1)
				fut, err := coll.Launch(p, s, d)
				if err != nil {
					t.Errorf("cycle %d launch: %v", cy, err)
					return
				}
				if err := fut.Wait(p); err != nil {
					t.Errorf("cycle %d wait: %v", cy, err)
					return
				}
				if got := d.Float64At(0); got != float64(n) {
					t.Errorf("cycle %d: sum = %v, want %v", cy, got, float64(n))
				}
				if err := coll.Close(p); err != nil {
					t.Errorf("cycle %d close: %v", cy, err)
					return
				}
				bar.Wait(p)
			}
			rc.Destroy(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := sys.CommsCreated(); got != 1 {
		t.Fatalf("CommsCreated = %d after %d open/close cycles, want 1 (pool must recycle)", got, cycles)
	}
	if got := sys.CommsPooled(); got != 1 {
		t.Fatalf("CommsPooled = %d, want 1", got)
	}
	if got := sys.NumRegistered(); got != 0 {
		t.Fatalf("NumRegistered = %d after closing everything, want 0", got)
	}
}

// TestRegistrationChurnKeepsPoolFlat is the registration-only variant:
// no launches at all, many distinct IDs, one communicator ever built.
func TestRegistrationChurnKeepsPoolFlat(t *testing.T) {
	e := sim.NewEngine()
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	ranks := []int{0, 1}
	e.Spawn("driver", func(p *sim.Process) {
		r0 := sys.Init(p, 0)
		r1 := sys.Init(p, 1)
		for cy := 0; cy < 50; cy++ {
			c0, err := r0.Open(lifecycleSpec(16, ranks), WithCollID(cy))
			if err != nil {
				t.Errorf("open r0: %v", err)
				return
			}
			c1, err := r1.Open(lifecycleSpec(16, ranks), WithCollID(cy))
			if err != nil {
				t.Errorf("open r1: %v", err)
				return
			}
			if err := c0.Close(p); err != nil {
				t.Errorf("close r0: %v", err)
			}
			if err := c1.Close(p); err != nil {
				t.Errorf("close r1: %v", err)
			}
		}
		r0.Destroy(p)
		r1.Destroy(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := sys.CommsCreated(); got != 1 {
		t.Fatalf("CommsCreated = %d after 50 register/close cycles, want 1", got)
	}
}

// TestCloseLifecycle covers the Close contract: double-Close is a
// no-op, Launch after Close errors, and the ID is reusable after a
// full close.
func TestCloseLifecycle(t *testing.T) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	ranks := []int{0, 1}
	bar := newTestBarrier(2)
	for rank := 0; rank < 2; rank++ {
		rank := rank
		e.Spawn("close", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			coll, err := rc.Open(lifecycleSpec(32, ranks), WithCollID(7))
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			s := mem.NewBuffer(mem.Float64, 32)
			d := mem.NewBuffer(mem.Float64, 32)
			fut, err := coll.Launch(p, s, d)
			if err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			if err := fut.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			if err := coll.Close(p); err != nil {
				t.Errorf("first close: %v", err)
			}
			if err := coll.Close(p); err != nil {
				t.Errorf("double close must be a no-op, got: %v", err)
			}
			if !coll.Closed() {
				t.Error("Closed() = false after Close")
			}
			if _, err := coll.Launch(p, s, d); err == nil {
				t.Error("Launch after Close must error")
			}
			if err := coll.LaunchCB(p, s, d, nil); err == nil {
				t.Error("LaunchCB after Close must error")
			}
			bar.Wait(p)
			// The fully-closed ID is free for a new registration, which
			// reuses the pooled communicator.
			again, err := rc.Open(lifecycleSpec(32, ranks), WithCollID(7))
			if err != nil {
				t.Errorf("reopen: %v", err)
				return
			}
			bar.Wait(p)
			if err := again.Close(p); err != nil {
				t.Errorf("reclose: %v", err)
			}
			rc.Destroy(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := sys.CommsCreated(); got != 1 {
		t.Fatalf("CommsCreated = %d, want 1 (reopen must reuse the pooled communicator)", got)
	}
}

// TestCloseWithOutstandingRunsErrors pins the safety rail: a
// collective with an in-flight run refuses to close, then closes
// cleanly after the run completes.
func TestCloseWithOutstandingRunsErrors(t *testing.T) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	ranks := []int{0, 1}
	for rank := 0; rank < 2; rank++ {
		rank := rank
		e.Spawn("busyclose", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			coll, err := rc.Open(lifecycleSpec(512, ranks), WithCollID(3))
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			s := mem.NewBuffer(mem.Float64, 512)
			d := mem.NewBuffer(mem.Float64, 512)
			fut, err := coll.Launch(p, s, d)
			if err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			if err := coll.Close(p); err == nil {
				t.Error("Close with an outstanding run must error")
			}
			if coll.Closed() {
				t.Error("failed Close must not mark the handle closed")
			}
			if err := fut.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			if err := coll.Close(p); err != nil {
				t.Errorf("close after completion: %v", err)
			}
			rc.Destroy(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestFutureCarriesCoreExecTime checks that Wait resolves with the
// run's core-execution timing and that Stats mirrors it.
func TestFutureCarriesCoreExecTime(t *testing.T) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	ranks := []int{0, 1}
	var futs [2]*Future
	var stats [2]CollectiveStats
	for rank := 0; rank < 2; rank++ {
		rank := rank
		e.Spawn("timing", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			coll, err := rc.Open(lifecycleSpec(4096, ranks))
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			s := mem.NewBuffer(mem.Float64, 4096)
			d := mem.NewBuffer(mem.Float64, 4096)
			fut, err := coll.Launch(p, s, d)
			if err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			if fut.Done() {
				t.Error("future done before the daemon ran")
			}
			if err := fut.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			futs[rank] = fut
			stats[rank] = coll.Stats()
			rc.Destroy(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for rank, fut := range futs {
		if fut == nil {
			t.Fatalf("rank %d: no future", rank)
		}
		if !fut.Done() {
			t.Fatalf("rank %d: future not done", rank)
		}
		if fut.CoreExecTime() <= 0 {
			t.Fatalf("rank %d: CoreExecTime = %v, want > 0", rank, fut.CoreExecTime())
		}
		if stats[rank].Completions != 1 {
			t.Fatalf("rank %d: Completions = %d, want 1", rank, stats[rank].Completions)
		}
		if stats[rank].LastCoreExec != fut.CoreExecTime() {
			t.Fatalf("rank %d: Stats.LastCoreExec = %v, future = %v",
				rank, stats[rank].LastCoreExec, fut.CoreExecTime())
		}
	}
}

// TestBatchJoinedFuture launches several collectives per rank in one
// Batch and checks the joined future accounts for every run.
func TestBatchJoinedFuture(t *testing.T) {
	const nColl = 4
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	ranks := []int{0, 1}
	for rank := 0; rank < 2; rank++ {
		rank := rank
		e.Spawn("batch", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			var items []BatchItem
			for c := 0; c < nColl; c++ {
				coll, err := rc.Open(lifecycleSpec(64, ranks), WithCollID(c))
				if err != nil {
					t.Errorf("open %d: %v", c, err)
					return
				}
				items = append(items, BatchItem{
					C:    coll,
					Send: mem.NewBuffer(mem.Float64, 64),
					Recv: mem.NewBuffer(mem.Float64, 64),
				})
			}
			fut, err := Batch(p, items...)
			if err != nil {
				t.Errorf("batch: %v", err)
				return
			}
			if fut.Runs() != nColl {
				t.Errorf("Runs = %d, want %d", fut.Runs(), nColl)
			}
			if err := fut.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			if fut.CoreExecTime() <= 0 {
				t.Errorf("joined CoreExecTime = %v, want > 0", fut.CoreExecTime())
			}
			if rc.Outstanding() != 0 {
				t.Errorf("Outstanding = %d after joined wait, want 0", rc.Outstanding())
			}
			rc.Destroy(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestBatchValidatesBeforeSubmitting checks that a bad item rejects
// the whole batch without submitting anything.
func TestBatchValidatesBeforeSubmitting(t *testing.T) {
	e := sim.NewEngine()
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	ranks := []int{0, 1}
	e.Spawn("badbatch", func(p *sim.Process) {
		rc := sys.Init(p, 0)
		good, err := rc.Open(lifecycleSpec(64, ranks), WithCollID(1))
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		ok := mem.NewBuffer(mem.Float64, 64)
		bad := mem.NewBuffer(mem.Float64, 3)
		if _, err := Batch(p,
			BatchItem{C: good, Send: ok, Recv: ok},
			BatchItem{C: good, Send: bad, Recv: ok},
		); err == nil {
			t.Error("batch with a mis-sized buffer must error")
		}
		if rc.Outstanding() != 0 {
			t.Errorf("Outstanding = %d after rejected batch, want 0 (nothing may be submitted)", rc.Outstanding())
		}
		rc.Destroy(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestAllToAllRefusesOverlap: an all-to-all(v) writes final blocks into
// its recv buffer while it still sends own blocks from its send buffer,
// so Launch, LaunchCB and Batch refuse one whose two buffers overlap with
// a *BufferOverlapError and submit nothing. Empty buffers overlap nothing
// (a rank whose row and column of the count matrix are zero), a
// timing-only run has no bytes to overlap, and every other kind may run
// in place.
func TestAllToAllRefusesOverlap(t *testing.T) {
	e := sim.NewEngine()
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	ranks := []int{0, 1}
	e.Spawn("overlap", func(p *sim.Process) {
		rc := sys.Init(p, 0)
		a2a, err := rc.Open(prim.Spec{Kind: prim.AllToAll, Count: 8, Type: mem.Float64, Ranks: ranks}, WithCollID(1))
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		same := mem.NewBuffer(mem.Float64, 16)
		refused := func(how string, err error) {
			var ov *BufferOverlapError
			if !errors.As(err, &ov) || ov.CollID != 1 || ov.Kind != prim.AllToAll {
				t.Errorf("%s in place: err = %v, want a BufferOverlapError for all-to-all 1", how, err)
			}
		}
		_, err = a2a.Launch(p, same, same)
		refused("Launch", err)
		refused("LaunchCB", a2a.LaunchCB(p, same, same, nil))
		_, err = Batch(p, BatchItem{C: a2a, Send: same, Recv: same})
		refused("Batch", err)
		if rc.Outstanding() != 0 {
			t.Errorf("Outstanding = %d after refused launches, want 0", rc.Outstanding())
		}

		empty := mem.NewBuffer(mem.Float64, 0)
		v, err := rc.Open(prim.Spec{Kind: prim.AllToAllv, Type: mem.Float64, Ranks: ranks, Counts: [][]int{{0, 0}, {0, 5}}}, WithCollID(2))
		if err != nil {
			t.Errorf("open v: %v", err)
			return
		}
		timing, err := rc.Open(prim.Spec{Kind: prim.AllToAll, Count: 8, Type: mem.Float64, Ranks: ranks}.Timing(), WithCollID(3))
		if err != nil {
			t.Errorf("open timing: %v", err)
			return
		}
		ar, err := rc.Open(lifecycleSpec(16, ranks), WithCollID(4))
		if err != nil {
			t.Errorf("open all-reduce: %v", err)
			return
		}
		for _, ok := range []struct {
			c    *Collective
			buf  *mem.Buffer
			what string
		}{{v, empty, "empty all-to-all-v buffers"}, {timing, same, "a timing-only all-to-all"}, {ar, same, "an all-reduce"}} {
			if err := ok.c.preflight(ok.buf, ok.buf); err != nil {
				t.Errorf("%s in place: %v, want accepted", ok.what, err)
			}
		}
		rc.Destroy(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSameSpecComparesTimingOnly pins Spec.Same's TimingOnly case:
// re-registering an ID with only TimingOnly flipped must be rejected.
func TestSameSpecComparesTimingOnly(t *testing.T) {
	e := sim.NewEngine()
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	ranks := []int{0, 1}
	e.Spawn("timingonly", func(p *sim.Process) {
		r0 := sys.Init(p, 0)
		r1 := sys.Init(p, 1)
		spec := lifecycleSpec(64, ranks)
		if _, err := r0.Open(spec, WithCollID(1)); err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if _, err := r1.Open(spec.Timing(), WithCollID(1)); err == nil ||
			!strings.Contains(err.Error(), "different spec") {
			t.Errorf("TimingOnly mismatch must be rejected, got: %v", err)
		}
		r0.Destroy(p)
		r1.Destroy(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestNilBufferLaunchErrors pins collTask.checkBuffers: launching a
// non-timing collective with nil buffers returns an error instead of
// dereferencing nil.
func TestNilBufferLaunchErrors(t *testing.T) {
	e := sim.NewEngine()
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	ranks := []int{0, 1}
	e.Spawn("nilbuf", func(p *sim.Process) {
		rc := sys.Init(p, 0)
		coll, err := rc.Open(lifecycleSpec(64, ranks), WithCollID(1))
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if _, err := coll.Launch(p, nil, nil); err == nil ||
			!strings.Contains(err.Error(), "nil buffer") {
			t.Errorf("nil-buffer launch must error, got: %v", err)
		}
		// Timing-only collectives accept nil buffers by design.
		tcoll, err := rc.Open(lifecycleSpec(64, ranks).Timing(), WithCollID(2))
		if err != nil {
			t.Errorf("open timing: %v", err)
			return
		}
		if err := tcoll.preflight(nil, nil); err != nil {
			t.Errorf("timing-only preflight with nil buffers: %v", err)
		}
		rc.Destroy(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestFailedOpenLeavesNoZombieGroup checks that an Open rejected by
// per-rank validation (rank outside the devSet) creates no group and
// acquires no communicator — a refs==0 group would be unreleasable.
func TestFailedOpenLeavesNoZombieGroup(t *testing.T) {
	e := sim.NewEngine()
	sys := NewSystem(e, topo.Server3090(4), DefaultConfig())
	e.Spawn("zombie", func(p *sim.Process) {
		outsider := sys.Init(p, 3)
		if _, err := outsider.Open(lifecycleSpec(64, []int{0, 1}), WithCollID(1)); err == nil ||
			!strings.Contains(err.Error(), "not in devSet") {
			t.Errorf("open from outside the devSet must error, got: %v", err)
		}
		if got := sys.NumRegistered(); got != 0 {
			t.Errorf("NumRegistered = %d after failed open, want 0", got)
		}
		if got := sys.CommsCreated(); got != 0 {
			t.Errorf("CommsCreated = %d after failed open, want 0", got)
		}
		outsider.Destroy(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestClosedHandleReportsZeroStats pins the stale-handle contract:
// after Close and ID reuse, the old handle must not leak the
// successor's spec or statistics.
func TestClosedHandleReportsZeroStats(t *testing.T) {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	ranks := []int{0, 1}
	bar := newTestBarrier(2)
	for rank := 0; rank < 2; rank++ {
		rank := rank
		e.Spawn("stale", func(p *sim.Process) {
			rc := sys.Init(p, rank)
			old, err := rc.Open(lifecycleSpec(32, ranks), WithCollID(1))
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			bar.Wait(p) // both ranks registered before either closes
			if err := old.Close(p); err != nil {
				t.Errorf("close: %v", err)
				return
			}
			bar.Wait(p) // full close before the ID is reused
			// Reuse the ID with a different spec and run it.
			succ, err := rc.Open(lifecycleSpec(64, ranks), WithCollID(1))
			if err != nil {
				t.Errorf("reopen: %v", err)
				return
			}
			s := mem.NewBuffer(mem.Float64, 64)
			d := mem.NewBuffer(mem.Float64, 64)
			fut, err := succ.Launch(p, s, d)
			if err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			if err := fut.Wait(p); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			if got := old.Stats(); !reflect.DeepEqual(got, CollectiveStats{}) {
				t.Errorf("stale handle Stats = %+v, want zero", got)
			}
			if got := old.Spec(); got.Count != 0 {
				t.Errorf("stale handle Spec = %+v, want zero", got)
			}
			if got := succ.Stats(); got.Completions != 1 {
				t.Errorf("successor Completions = %d, want 1", got.Completions)
			}
			rc.Destroy(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestAutoCollIDConvergence checks that ranks opening identical specs
// in the same per-spec order converge on the same system-assigned IDs,
// and that distinct specs get distinct IDs.
func TestAutoCollIDConvergence(t *testing.T) {
	e := sim.NewEngine()
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	ranks := []int{0, 1}
	e.Spawn("autoid", func(p *sim.Process) {
		r0 := sys.Init(p, 0)
		r1 := sys.Init(p, 1)
		a0, err := r0.Open(lifecycleSpec(64, ranks))
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		b0, err := r0.Open(lifecycleSpec(64, ranks)) // same spec again
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		c0, err := r0.Open(lifecycleSpec(128, ranks)) // different spec
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		a1, err := r1.Open(lifecycleSpec(64, ranks))
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if a0.ID() != a1.ID() {
			t.Errorf("first opens of the same spec diverged: %d vs %d", a0.ID(), a1.ID())
		}
		if a0.ID() == b0.ID() {
			t.Error("two live opens of the same spec on one rank must get distinct IDs")
		}
		if c0.ID() == a0.ID() || c0.ID() == b0.ID() {
			t.Error("different spec must get a different ID")
		}
		if a0.ID() < AutoCollIDBase {
			t.Errorf("auto ID %d below AutoCollIDBase", a0.ID())
		}
		r0.Destroy(p)
		r1.Destroy(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestAutoIDsDropClosedSpecs: autoIDs keeps an entry for a spec only
// while an auto-assigned ID of it is open. Closing every group of a spec
// drops its entry, the other spec's stays, on its own copy of the ranks,
// and a reopen of the closed spec gets the next fresh ID.
func TestAutoIDsDropClosedSpecs(t *testing.T) {
	e := sim.NewEngine()
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	ranks := []int{0, 1}
	e.Spawn("autoid", func(p *sim.Process) {
		rcs := []*RankContext{sys.Init(p, 0), sys.Init(p, 1)}
		// open opens spec on both ranks and returns the ID they share.
		open := func(spec prim.Spec) int {
			id := -1
			for _, rc := range rcs {
				c, err := rc.Open(spec)
				if err != nil || id >= 0 && c.ID() != id {
					t.Errorf("open on rank %d: %v, or an ID of its own", rc.Rank, err)
					return -1
				}
				id = c.ID()
			}
			return id
		}
		closeAll := func(id int) {
			for _, rc := range rcs {
				if err := rc.Unregister(id); err != nil {
					t.Errorf("close %d on rank %d: %v", id, rc.Rank, err)
				}
			}
		}
		a1, a2, b := open(lifecycleSpec(64, ranks)), open(lifecycleSpec(64, ranks)), open(lifecycleSpec(128, ranks))
		if len(sys.autoIDs) != 2 || len(sys.autoIDs[0].ids) != 2 {
			t.Errorf("autoIDs = %+v, want two specs, the first with two IDs", sys.autoIDs)
		}
		closeAll(a1)
		closeAll(a2)
		if len(sys.autoIDs) != 1 || !sys.autoIDs[0].spec.Same(lifecycleSpec(128, ranks)) ||
			&sys.autoIDs[0].spec.Ranks[0] == &ranks[0] {
			t.Errorf("autoIDs = %+v after the 64-element spec closed, want only the 128-element one's, on a copy", sys.autoIDs)
		}
		closeAll(b)
		if len(sys.autoIDs) != 0 {
			t.Errorf("autoIDs = %+v after every group closed, want none", sys.autoIDs)
		}
		next := sys.nextAutoID
		if id := open(lifecycleSpec(64, ranks)); id != next {
			t.Errorf("a reopen of a closed spec got ID %d, want the next fresh one %d", id, next)
		}
		for _, rc := range rcs {
			rc.Destroy(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestCrossJobRegisterRefused pins the multi-tenant ownership check:
// once job 1 registers a collective ID, a rank acting for job 2 cannot
// join that group — Open fails with the ownership error instead of
// silently coupling the two tenants' gang schedules. Ordering between
// the two ranks is by virtual time (rank 1 opens 1µs after rank 0).
func TestCrossJobRegisterRefused(t *testing.T) {
	const count = 64
	e := sim.NewEngine()
	e.MaxTime = sim.Time(60 * sim.Second)
	sys := NewSystem(e, topo.Server3090(2), DefaultConfig())
	ranks := []int{0, 1}

	e.Spawn("job1.rank0", func(p *sim.Process) {
		rc := sys.Init(p, 0)
		coll, err := rc.Open(lifecycleSpec(count, ranks), WithCollID(7), WithJob(1))
		if err != nil {
			t.Errorf("job 1 open: %v", err)
			return
		}
		p.Sleep(5 * sim.Microsecond) // keep the group live across rank 1's attempt
		if err := coll.Close(p); err != nil {
			t.Errorf("job 1 close: %v", err)
		}
		rc.Destroy(p)
	})
	e.Spawn("job2.rank1", func(p *sim.Process) {
		p.Sleep(1 * sim.Microsecond) // after job 1's registration
		rc := sys.Init(p, 1)
		_, err := rc.Open(lifecycleSpec(count, ranks), WithCollID(7), WithJob(2))
		if err == nil {
			t.Error("job 2 joined job 1's collective; want ownership refusal")
		} else if !strings.Contains(err.Error(), "owned by job 1 re-registered by job 2") {
			t.Errorf("wrong refusal: %v", err)
		}
		rc.Destroy(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestRecycledTasksRunLikeNew runs AllReduce → uneven AllToAllv →
// ReduceScatter → a smaller AllReduce, each opened, launched once and
// closed on every rank of an 8-rank set that alternates two nodes, on
// the ring and hierarchically. Every Open after the first few is served
// by a task some rank's Close released, whose executor last ran another
// plan, so the test checks what a recycled task must reproduce: outputs
// byte-exact against the closed form, each new handle's Stats at zero,
// and BytesSentTotals and PrimsExecutedTotal equal to the flight
// recorder's sums. The free list ends holding at most the peak number
// of tasks registered at once, one per rank.
func TestRecycledTasksRunLikeNew(t *testing.T) {
	ranks := []int{0, 4, 1, 5, 2, 6, 3, 7}
	n := len(ranks)
	val := func(rank, i int) float64 { return float64((rank*7+i*3)%11 + 1) }
	block := func(i, j, k int) float64 { return float64(i*1000 + j*10 + k) }
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
		for j := range counts[i] {
			counts[i][j] = (i + 2*j) % 5
		}
	}
	specs := []prim.Spec{
		{Kind: prim.AllReduce, Count: 96, Type: mem.Float64, Op: mem.Sum, Ranks: ranks},
		{Kind: prim.AllToAllv, Type: mem.Float64, Ranks: ranks, Counts: counts, ChunkElems: 2},
		{Kind: prim.ReduceScatter, Count: 6 * n, Type: mem.Float64, Op: mem.Sum, Ranks: ranks, ChunkElems: 4},
		{Kind: prim.AllReduce, Count: 40, Type: mem.Float64, Op: mem.Sum, Ranks: ranks},
	}
	// fill writes position pos's send buffer and returns the recv buffer
	// its run must produce.
	fill := func(spec prim.Spec, pos int, send *mem.Buffer) *mem.Buffer {
		sendCount, recvCount := prim.BufferCountsFor(spec, pos)
		want := mem.NewBuffer(spec.Type, recvCount)
		switch spec.Kind {
		case prim.AllToAllv:
			for j, off := 0, 0; j < n; j++ {
				for k := 0; k < counts[pos][j]; k++ {
					send.SetFloat64(off+k, block(pos, j, k))
				}
				off += counts[pos][j]
			}
			for i, off := 0, 0; i < n; i++ {
				for k := 0; k < counts[i][pos]; k++ {
					want.SetFloat64(off+k, block(i, pos, k))
				}
				off += counts[i][pos]
			}
		default:
			for i := 0; i < sendCount; i++ {
				send.SetFloat64(i, val(ranks[pos], i))
			}
			for k := 0; k < recvCount; k++ {
				i := k
				if spec.Kind == prim.ReduceScatter {
					i += pos * recvCount
				}
				sum := 0.0
				for _, r := range ranks {
					sum += val(r, i)
				}
				want.SetFloat64(k, sum)
			}
		}
		return want
	}
	for _, algo := range []prim.Algorithm{prim.AlgoRing, prim.AlgoHierarchical} {
		e := sim.NewEngine()
		e.MaxTime = sim.Time(60 * sim.Second)
		rec := &trace.Recorder{}
		cfg := DefaultConfig()
		cfg.Recorder = rec
		sys := NewSystem(e, topo.NewCluster(2, 4, topo.RTX3090, topo.DefaultLinks), cfg)
		for pos, rank := range ranks {
			e.Spawn("recycle", func(p *sim.Process) {
				rc := sys.Init(p, rank)
				defer rc.Destroy(p)
				for _, spec := range specs {
					spec.Algo = algo
					c, err := rc.Open(spec)
					if err != nil {
						t.Errorf("%v rank %d open %v: %v", algo, rank, spec.Kind, err)
						return
					}
					st := c.Stats()
					if st.NumPrimitives == 0 {
						t.Errorf("%v rank %d %v: no primitives", algo, rank, spec.Kind)
					}
					st.NumPrimitives = 0
					if !reflect.DeepEqual(st, CollectiveStats{}) {
						t.Errorf("%v rank %d %v: a new handle's Stats = %+v, want zero", algo, rank, spec.Kind, st)
					}
					sendCount, recvCount := prim.BufferCountsFor(spec, pos)
					send, recv := mem.NewBuffer(spec.Type, sendCount), mem.NewBuffer(spec.Type, recvCount)
					want := fill(spec, pos, send)
					fut, err := c.Launch(p, send, recv)
					if err == nil {
						err = fut.Wait(p)
					}
					if err != nil {
						t.Errorf("%v rank %d %v: %v", algo, rank, spec.Kind, err)
						return
					}
					if !bytes.Equal(recv.Bytes(), want.Bytes()) {
						t.Errorf("%v rank %d %v: recv differs from the closed form", algo, rank, spec.Kind)
					}
					if err := c.Close(p); err != nil {
						t.Errorf("%v rank %d close: %v", algo, rank, err)
					}
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("%v: Run: %v", algo, err)
		}
		local, shm, rdma := rec.SendBytesBy()
		m := sys.Metrics()
		if int64(local) != m["prim.bytes_local"] || int64(shm) != m["prim.bytes_shm"] || int64(rdma) != m["prim.bytes_rdma"] {
			t.Errorf("%v: trace bytes (local %d, shm %d, rdma %d) != accounting %v", algo, local, shm, rdma, m)
		}
		if got, want := int64(len(rec.Actions)), m["prim.prims_executed"]; got != want || got == 0 {
			t.Errorf("%v: %d action spans, prim.prims_executed %d", algo, got, want)
		}
		free := 0
		for task := sys.freeTasks; task != nil; task = task.next {
			free++
		}
		if free == 0 || free > n {
			t.Errorf("%v: %d tasks on the free list, want 1..%d", algo, free, n)
		}
	}
}

// TestOneSharedPlanPerShape: a collective's ranks read one plan. Opening
// a 32-rank flat all-reduce on all 32 ranks of a fresh System builds it
// once, and a second collective of that shape, open at the same time on
// a second communicator, reads it too; after every rank closes, a reopen
// of the same shape on a pooled communicator reads that plan again,
// building none, and a reopen of another shape builds one new plan,
// which all 32 read.
func TestOneSharedPlanPerShape(t *testing.T) {
	const n = 32
	e := sim.NewEngine()
	sys := NewSystem(e, topo.NewCluster(4, 8, topo.RTX3090, topo.DefaultLinks), DefaultConfig())
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	e.Spawn("driver", func(p *sim.Process) {
		rcs := make([]*RankContext, n)
		for rank := range rcs {
			rcs[rank] = sys.Init(p, rank)
		}
		// open registers spec on every rank under id and returns the plan
		// they read, failing unless it is one (nil if an Open failed).
		open := func(spec prim.Spec, id int) *prim.Sequence {
			var plan *prim.Sequence
			for _, rc := range rcs {
				if _, err := rc.Open(spec, WithCollID(id)); err != nil {
					t.Errorf("open %d on rank %d: %v", id, rc.Rank, err)
					return nil
				}
				if seq := rc.task(id).exec.Seq; plan == nil {
					plan = seq
				} else if seq != plan {
					t.Errorf("collective %d: rank %d reads a plan of its own", id, rc.Rank)
				}
			}
			return plan
		}
		closeAll := func(id int) {
			for _, rc := range rcs {
				if err := rc.Unregister(id); err != nil {
					t.Errorf("close %d on rank %d: %v", id, rc.Rank, err)
				}
			}
		}
		first := open(lifecycleSpec(4096, ranks), 1)
		if twin := open(lifecycleSpec(4096, ranks), 4); first == nil || twin != first {
			t.Error("a second communicator built its own plan of the same shape")
		}
		closeAll(4)
		closeAll(1)
		if again := open(lifecycleSpec(4096, ranks), 2); first == nil || again != first {
			t.Error("a pooled reopen of the same shape built a new plan")
		}
		closeAll(2)
		if other := open(lifecycleSpec(2048, ranks), 3); other == first {
			t.Error("a reopen of another shape read the old shape's plan")
		}
		closeAll(3)
		for _, rc := range rcs {
			rc.Destroy(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := sys.CommsCreated(); got != 2 {
		t.Fatalf("CommsCreated = %d, want the two pooled communicators", got)
	}
}
