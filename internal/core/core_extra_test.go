package core

import (
	"testing"
	"unsafe"

	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// TestResumeAcrossVoluntaryQuit drives a collective that must stall
// (its peer arrives only much later), survive daemon quits and
// restarts, and still produce correct data — the context-integrity
// argument of Sec. 4.5.
func TestResumeAcrossVoluntaryQuit(t *testing.T) {
	const count = 4096
	sys := newSys(2, DefaultConfig())
	sys.Engine.MaxTime = sim.Time(60 * sim.Second)
	var result *mem.Buffer
	var quits int
	sys.Engine.Spawn("rank0", func(p *sim.Process) {
		r := sys.Init(p, 0)
		coll, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float64, Op: mem.Sum, Ranks: []int{0, 1}}, WithCollID(1))
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		s := mem.NewBuffer(mem.Float64, count)
		d := mem.NewBuffer(mem.Float64, count)
		s.Fill(3)
		result = d
		if err := coll.LaunchCB(p, s, d, nil); err != nil {
			t.Errorf("run: %v", err)
			return
		}
		r.WaitAll(p)
		quits = r.Stats.VoluntaryQuits
		r.Destroy(p)
	})
	sys.Engine.Spawn("rank1-late", func(p *sim.Process) {
		r := sys.Init(p, 1)
		coll, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float64, Op: mem.Sum, Ranks: []int{0, 1}}, WithCollID(1))
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		// Arrive long after rank 0's daemon has given up and quit
		// (several quit periods).
		p.Sleep(5 * sim.Millisecond)
		s := mem.NewBuffer(mem.Float64, count)
		d := mem.NewBuffer(mem.Float64, count)
		s.Fill(4)
		if err := coll.LaunchCB(p, s, d, nil); err != nil {
			t.Errorf("run: %v", err)
			return
		}
		r.WaitAll(p)
		r.Destroy(p)
	})
	if err := sys.Engine.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if quits == 0 {
		t.Fatal("rank 0's daemon never quit while waiting 5ms for its peer")
	}
	if got := result.Float64At(count - 1); got != 7 {
		t.Fatalf("result = %v, want 7", got)
	}
}

// TestManyCollectivesSmallCQ forces CQ back-pressure: a 4-slot CQ with
// a burst of completions must still deliver every callback.
func TestManyCollectivesSmallCQ(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CQSlots = 4
	sys := newSys(2, cfg)
	const burst = 24
	runApp(t, sys, 2, func(p *sim.Process, r *RankContext) {
		coll, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: 64, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(2)}, WithCollID(1))
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		for i := 0; i < burst; i++ {
			s := mem.NewBuffer(mem.Float32, 64)
			d := mem.NewBuffer(mem.Float32, 64)
			if err := coll.LaunchCB(p, s, d, nil); err != nil {
				t.Errorf("run: %v", err)
				return
			}
		}
	})
	for rank := 0; rank < 2; rank++ {
		if got := sys.ranks[rank].Completed(); got != burst {
			t.Fatalf("rank %d completed %d, want %d", rank, got, burst)
		}
	}
}

// TestRegistrationBeyondContextBuffer enforces the MaxCollectives cap
// that models the collective context buffer.
func TestRegistrationBeyondContextBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCollectives = 3
	sys := newSys(2, cfg)
	runApp(t, sys, 2, func(p *sim.Process, r *RankContext) {
		var first *Collective
		var lastErr error
		for c := 0; c < 5; c++ {
			var coll *Collective
			if coll, lastErr = r.Open(prim.Spec{Kind: prim.AllReduce, Count: 32, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(2)}, WithCollID(c)); c == 0 {
				first = coll
			}
		}
		if lastErr == nil {
			t.Error("registration beyond MaxCollectives accepted")
		}
		// The registered ones still work.
		s := mem.NewBuffer(mem.Float32, 32)
		d := mem.NewBuffer(mem.Float32, 32)
		if err := first.LaunchCB(p, s, d, nil); err != nil {
			t.Errorf("run: %v", err)
		}
	})
}

// TestTimingOnlyMatchesDataPathSchedule checks that a timing-only
// collective completes in exactly the same virtual time as the same
// collective with real data (the performance model is data-independent).
func TestTimingOnlyMatchesDataPathSchedule(t *testing.T) {
	run := func(timingOnly bool) sim.Time {
		sys := newSys(4, DefaultConfig())
		const count = 8192
		runApp(t, sys, 4, func(p *sim.Process, r *RankContext) {
			spec := prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float32, Op: mem.Sum,
				Ranks: allRanks(4), TimingOnly: timingOnly}
			coll, err := r.Open(spec, WithCollID(1))
			if err != nil {
				t.Errorf("register: %v", err)
				return
			}
			n := count
			if timingOnly {
				n = 0
			}
			s := mem.NewBuffer(mem.Float32, n)
			d := mem.NewBuffer(mem.Float32, n)
			if err := coll.LaunchCB(p, s, d, nil); err != nil {
				t.Errorf("run: %v", err)
			}
		})
		return sys.Engine.Now()
	}
	real, modeled := run(false), run(true)
	if real != modeled {
		t.Fatalf("timing-only schedule %v differs from data path %v", modeled, real)
	}
}

// TestDaemonGridUsesLargestRegistered verifies the daemon kernel is
// launched with the largest grid among registered collectives.
func TestDaemonGridUsesLargestRegistered(t *testing.T) {
	sys := newSys(2, DefaultConfig())
	runApp(t, sys, 2, func(p *sim.Process, r *RankContext) {
		coll, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: 64, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(2)}, WithCollID(1))
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		s := mem.NewBuffer(mem.Float32, 64)
		d := mem.NewBuffer(mem.Float32, 64)
		if err := coll.LaunchCB(p, s, d, nil); err != nil {
			t.Errorf("run: %v", err)
			return
		}
		r.WaitAll(p)
		if r.daemonInst == nil || r.daemonInst.Kernel().Grid != r.task(1).group.Grid {
			t.Errorf("daemon grid = %v, want group grid %d", r.daemonInst.Kernel().Grid, r.task(1).group.Grid)
		}
	})
}

// TestDeterministicEndToEnd runs the same disordered workload twice
// and requires identical completion times and statistics.
func TestDeterministicEndToEnd(t *testing.T) {
	run := func() (sim.Time, RankStats) {
		sys := newSys(4, DefaultConfig())
		runApp(t, sys, 4, func(p *sim.Process, r *RankContext) {
			var colls [4]*Collective
			for c := range colls {
				var err error
				colls[c], err = r.Open(prim.Spec{Kind: prim.AllReduce, Count: 256 << c, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(4)}, WithCollID(c))
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
			for i := 0; i < 3; i++ {
				for c := 0; c < 4; c++ {
					id := (c + r.Rank + i) % 4 // rank-dependent order
					s := mem.NewBuffer(mem.Float32, 256<<id)
					d := mem.NewBuffer(mem.Float32, 256<<id)
					if err := colls[id].LaunchCB(p, s, d, nil); err != nil {
						t.Errorf("run: %v", err)
						return
					}
				}
				r.WaitAll(p)
			}
		})
		return sys.Engine.Now(), sys.ranks[0].Stats
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatalf("end times differ: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
}

// TestFIFOFetchBackoff verifies the FIFO ordering policy does not
// fetch new SQEs while the current task progresses, but does after the
// backoff when everything is stuck.
func TestFIFOFetchBackoff(t *testing.T) {
	cfg := DefaultConfig()
	sys := newSys(2, cfg)
	runApp(t, sys, 2, func(p *sim.Process, r *RankContext) {
		var colls [3]*Collective
		for c := range colls {
			var err error
			colls[c], err = r.Open(prim.Spec{Kind: prim.AllReduce, Count: 1024, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(2)}, WithCollID(c))
			if err != nil {
				t.Errorf("register: %v", err)
				return
			}
		}
		// Rank 1 delays so rank 0's first collective is stuck,
		// forcing backoff-driven fetches of the rest.
		if r.Rank == 1 {
			p.Sleep(200 * sim.Microsecond)
		}
		for _, coll := range colls {
			s := mem.NewBuffer(mem.Float32, 1024)
			d := mem.NewBuffer(mem.Float32, 1024)
			if err := coll.LaunchCB(p, s, d, nil); err != nil {
				t.Errorf("run: %v", err)
				return
			}
		}
	})
	for rank := 0; rank < 2; rank++ {
		if got := sys.ranks[rank].Completed(); got != 3 {
			t.Fatalf("rank %d completed %d, want 3", rank, got)
		}
	}
}

// TestDestroyIdempotent checks repeated Destroy calls are safe.
func TestDestroyIdempotent(t *testing.T) {
	sys := newSys(2, DefaultConfig())
	sys.Engine.MaxTime = sim.Time(10 * sim.Second)
	for rank := 0; rank < 2; rank++ {
		rank := rank
		sys.Engine.Spawn("app", func(p *sim.Process) {
			r := sys.Init(p, rank)
			r.Destroy(p)
			r.Destroy(p)
			if _, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: 8, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(2)}, WithCollID(1)); err == nil {
				t.Error("register after destroy accepted")
			}
		})
	}
	if err := sys.Engine.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

var _ = topo.RTX3090 // keep topo linked for helpers above

// TestFutureIsSmall: every Launch allocates one Future, so it fits Go's
// 48-byte size class: its condition (two words), its counts as int32 and
// no engine pointer, which the poller that resolves it passes instead (96
// bytes while it held them).
func TestFutureIsSmall(t *testing.T) {
	if size := unsafe.Sizeof(Future{}); size > 48 {
		t.Errorf("a Future is %d bytes, budget 48", size)
	}
}
