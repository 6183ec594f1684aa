package core

import (
	"math/rand"
	"slices"
	"testing"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// runApp spawns one host process per rank running fn and drives the
// simulation to completion; every rank's context is destroyed at the
// end of fn so the engine quiesces.
func runApp(t *testing.T, sys *System, nRanks int, fn func(p *sim.Process, r *RankContext)) {
	t.Helper()
	sys.Engine.MaxTime = sim.Time(60 * sim.Second)
	for rank := 0; rank < nRanks; rank++ {
		rank := rank
		sys.Engine.Spawn("app", func(p *sim.Process) {
			r := sys.Init(p, rank)
			fn(p, r)
			r.WaitAll(p)
			r.Destroy(p)
		})
	}
	if err := sys.Engine.Run(); err != nil {
		t.Fatalf("Run: %v (blocked: %v)", err, sys.Engine.BlockedProcesses())
	}
}

func newSys(nGPUs int, cfg Config) *System {
	return NewSystem(sim.NewEngine(), topo.Server3090(nGPUs), cfg)
}

func allRanks(n int) []int {
	rs := make([]int, n)
	for i := range rs {
		rs[i] = i
	}
	return rs
}

func TestSingleAllReduceCompletes(t *testing.T) {
	const n, count = 8, 1024
	sys := newSys(n, DefaultConfig())
	results := make([]*mem.Buffer, n)
	runApp(t, sys, n, func(p *sim.Process, r *RankContext) {
		coll, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float64, Op: mem.Sum, Ranks: allRanks(n)}, WithCollID(1))
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		s := mem.NewBuffer(mem.Float64, count)
		d := mem.NewBuffer(mem.Float64, count)
		s.Fill(float64(r.Rank + 1))
		results[r.Rank] = d
		var completed bool
		if err := coll.LaunchCB(p, s, d, func(error) { completed = true }); err != nil {
			t.Errorf("run: %v", err)
			return
		}
		r.WaitAll(p)
		if !completed {
			t.Errorf("rank %d: callback not invoked", r.Rank)
		}
	})
	want := float64(n*(n+1)) / 2
	for rank, d := range results {
		if got := d.Float64At(count - 1); got != want {
			t.Fatalf("rank %d result = %v, want %v", rank, got, want)
		}
	}
}

func TestAllCollectiveKindsThroughDFCCL(t *testing.T) {
	const n = 4
	sys := newSys(n, DefaultConfig())
	ag := make([]*mem.Buffer, n)
	rs := make([]*mem.Buffer, n)
	bc := make([]*mem.Buffer, n)
	rd := make([]*mem.Buffer, n)
	runApp(t, sys, n, func(p *sim.Process, r *RankContext) {
		devs := allRanks(n)
		check := func(err error) {
			if err != nil {
				t.Errorf("rank %d: %v", r.Rank, err)
			}
		}
		open := func(id int, spec prim.Spec) *Collective {
			spec.Type, spec.Ranks = mem.Float64, devs
			coll, err := r.Open(spec, WithCollID(id))
			check(err)
			return coll
		}
		agC := open(10, prim.Spec{Kind: prim.AllGather, Count: 16})
		rsC := open(11, prim.Spec{Kind: prim.ReduceScatter, Count: 16 * n, Op: mem.Sum})
		bcC := open(12, prim.Spec{Kind: prim.Broadcast, Count: 64, Root: 2})
		rdC := open(13, prim.Spec{Kind: prim.Reduce, Count: 64, Op: mem.Sum, Root: 1})

		agS := mem.NewBuffer(mem.Float64, 16)
		agS.Fill(float64(r.Rank))
		ag[r.Rank] = mem.NewBuffer(mem.Float64, 16*n)
		check(agC.LaunchCB(p, agS, ag[r.Rank], nil))

		rsS := mem.NewBuffer(mem.Float64, 16*n)
		rsS.Fill(2)
		rs[r.Rank] = mem.NewBuffer(mem.Float64, 16)
		check(rsC.LaunchCB(p, rsS, rs[r.Rank], nil))

		bcS := mem.NewBuffer(mem.Float64, 64)
		bcS.Fill(float64(100 + r.Rank))
		bc[r.Rank] = mem.NewBuffer(mem.Float64, 64)
		check(bcC.LaunchCB(p, bcS, bc[r.Rank], nil))

		rdS := mem.NewBuffer(mem.Float64, 64)
		rdS.Fill(3)
		rd[r.Rank] = mem.NewBuffer(mem.Float64, 64)
		check(rdC.LaunchCB(p, rdS, rd[r.Rank], nil))
	})
	for rank := 0; rank < n; rank++ {
		for seg := 0; seg < n; seg++ {
			if got := ag[rank].Float64At(seg*16 + 3); got != float64(seg) {
				t.Fatalf("all-gather rank %d seg %d = %v, want %v", rank, seg, got, float64(seg))
			}
		}
		if got := rs[rank].Float64At(0); got != float64(2*n) {
			t.Fatalf("reduce-scatter rank %d = %v, want %v", rank, got, float64(2*n))
		}
		if got := bc[rank].Float64At(63); got != 102 {
			t.Fatalf("broadcast rank %d = %v, want 102", rank, got)
		}
	}
	if got := rd[1].Float64At(0); got != float64(3*n) {
		t.Fatalf("reduce root = %v, want %v", got, float64(3*n))
	}
}

// TestDisorderedInvocationNoDeadlock is the paper's first Sec. 6.1
// testing program: eight GPUs invoke the same eight all-reduces, each
// GPU in a unique random order, on what would be a single queue. NCCL
// deadlocks (see ncclsim tests); DFCCL must complete every iteration.
func TestDisorderedInvocationNoDeadlock(t *testing.T) {
	const n, nColl, iters = 8, 8, 5
	sys := newSys(n, DefaultConfig())
	rng := rand.New(rand.NewSource(42))
	orders := make([][]int, n)
	for i := range orders {
		orders[i] = rng.Perm(nColl)
	}
	var totalPreempts int
	runApp(t, sys, n, func(p *sim.Process, r *RankContext) {
		var colls [nColl]*Collective
		for c := range colls {
			count := 64 << c // 256B .. 32KB float32
			var err error
			colls[c], err = r.Open(prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(n)}, WithCollID(c))
			if err != nil {
				t.Errorf("register: %v", err)
				return
			}
		}
		for it := 0; it < iters; it++ {
			for _, c := range orders[r.Rank] {
				count := 64 << c
				s := mem.NewBuffer(mem.Float32, count)
				d := mem.NewBuffer(mem.Float32, count)
				s.Fill(1)
				if err := colls[c].LaunchCB(p, s, d, nil); err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
			r.WaitAll(p)
		}
		totalPreempts += r.Stats.Preemptions
	})
	for rank := 0; rank < n; rank++ {
		if got := sys.ranks[rank].Completed(); got != nColl*iters {
			t.Fatalf("rank %d completed %d, want %d", rank, got, nColl*iters)
		}
	}
	if totalPreempts == 0 {
		t.Fatal("disordered invocation exercised no preemption")
	}
}

// TestDeviceSyncBetweenCollectivesNoDeadlock is the second Sec. 6.1
// program: cudaDeviceSynchronize between disordered all-reduces. The
// daemon kernel must voluntarily quit so the syncs can complete.
func TestDeviceSyncBetweenCollectivesNoDeadlock(t *testing.T) {
	const n = 2
	sys := newSys(n, DefaultConfig())
	var quits int
	runApp(t, sys, n, func(p *sim.Process, r *RankContext) {
		var colls [2]*Collective
		for c := range colls {
			var err error
			colls[c], err = r.Open(prim.Spec{Kind: prim.AllReduce, Count: 512, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(n)}, WithCollID(c))
			if err != nil {
				t.Errorf("register: %v", err)
				return
			}
		}
		// GPU 0: A, sync, B.  GPU 1: B, sync, A — Fig. 1(d).
		order := []int{0, 1}
		if r.Rank == 1 {
			order = []int{1, 0}
		}
		mk := func() (*mem.Buffer, *mem.Buffer) {
			s := mem.NewBuffer(mem.Float32, 512)
			s.Fill(1)
			return s, mem.NewBuffer(mem.Float32, 512)
		}
		s1, d1 := mk()
		if err := colls[order[0]].LaunchCB(p, s1, d1, nil); err != nil {
			t.Errorf("run: %v", err)
		}
		r.dev.Synchronize(p)
		s2, d2 := mk()
		if err := colls[order[1]].LaunchCB(p, s2, d2, nil); err != nil {
			t.Errorf("run: %v", err)
		}
		r.WaitAll(p)
		quits += r.Stats.VoluntaryQuits
	})
	if quits == 0 {
		t.Fatal("no voluntary quits despite device synchronization deadlock pattern")
	}
	for rank := 0; rank < n; rank++ {
		if got := sys.ranks[rank].Completed(); got != 2 {
			t.Fatalf("rank %d completed %d, want 2", rank, got)
		}
	}
}

func TestRepeatedRunsOfRegisteredCollective(t *testing.T) {
	const n, iters = 4, 20
	sys := newSys(n, DefaultConfig())
	sums := make([]float64, n)
	runApp(t, sys, n, func(p *sim.Process, r *RankContext) {
		coll, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: 128, Type: mem.Float64, Op: mem.Sum, Ranks: allRanks(n)}, WithCollID(7))
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		for it := 0; it < iters; it++ {
			s := mem.NewBuffer(mem.Float64, 128)
			d := mem.NewBuffer(mem.Float64, 128)
			s.Fill(float64(it))
			if err := coll.LaunchCB(p, s, d, nil); err != nil {
				t.Errorf("run: %v", err)
				return
			}
			r.WaitAll(p)
			sums[r.Rank] += d.Float64At(0)
		}
	})
	// Each iteration's result is it*n; sum over iters = n*iters*(iters-1)/2.
	want := float64(n * iters * (iters - 1) / 2)
	for rank, got := range sums {
		if got != want {
			t.Fatalf("rank %d accumulated %v, want %v", rank, got, want)
		}
	}
}

func TestPipelinedRunsWithoutWait(t *testing.T) {
	// Multiple outstanding runs of the same collective must pipeline
	// through the connectors and complete in order.
	const n, burst = 2, 8
	sys := newSys(n, DefaultConfig())
	order := make([][]int, n)
	runApp(t, sys, n, func(p *sim.Process, r *RankContext) {
		coll, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: 64, Type: mem.Float64, Op: mem.Sum, Ranks: allRanks(n)}, WithCollID(3))
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		for i := 0; i < burst; i++ {
			i := i
			s := mem.NewBuffer(mem.Float64, 64)
			d := mem.NewBuffer(mem.Float64, 64)
			s.Fill(float64(i))
			rank := r.Rank
			if err := coll.LaunchCB(p, s, d, func(error) { order[rank] = append(order[rank], i) }); err != nil {
				t.Errorf("run: %v", err)
				return
			}
		}
	})
	for rank := 0; rank < n; rank++ {
		if len(order[rank]) != burst {
			t.Fatalf("rank %d completed %d runs, want %d", rank, len(order[rank]), burst)
		}
		for i, got := range order[rank] {
			if got != i {
				t.Fatalf("rank %d completion order %v not FIFO", rank, order[rank])
			}
		}
	}
}

func TestCQVariantsAllDeliver(t *testing.T) {
	for _, v := range []CQVariant{CQVanillaRing, CQOptimizedRing, CQOptimized} {
		cfg := DefaultConfig()
		cfg.CQVariant = v
		sys := newSys(2, cfg)
		runApp(t, sys, 2, func(p *sim.Process, r *RankContext) {
			coll, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: 32, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(2)}, WithCollID(1))
			if err != nil {
				t.Errorf("%v register: %v", v, err)
				return
			}
			for i := 0; i < 5; i++ {
				s := mem.NewBuffer(mem.Float32, 32)
				d := mem.NewBuffer(mem.Float32, 32)
				if err := coll.LaunchCB(p, s, d, nil); err != nil {
					t.Errorf("%v run: %v", v, err)
					return
				}
			}
		})
		if got := sys.ranks[0].Completed(); got != 5 {
			t.Fatalf("%v: completed %d, want 5", v, got)
		}
	}
}

func TestCQUnits(t *testing.T) {
	for _, v := range []CQVariant{CQVanillaRing, CQOptimizedRing, CQOptimized} {
		q := NewCQ(v, 4)
		for i := 0; i < 4; i++ {
			if !q.Push(i) {
				t.Fatalf("%v: push %d failed", v, i)
			}
		}
		if q.Push(99) {
			t.Fatalf("%v: push into full CQ succeeded", v)
		}
		// FIFO order is the contract of all three variants.
		if got := q.Drain(); !slices.Equal(got, []int{0, 1, 2, 3}) {
			t.Fatalf("%v: drained %v, want FIFO 0..3", v, got)
		}
		if !q.Push(7) {
			t.Fatalf("%v: push after drain failed", v)
		}
		if out := q.Drain(); len(out) != 1 || out[0] != 7 {
			t.Fatalf("%v: reuse drain = %v", v, out)
		}
		var empty []int
		if allocs := testing.AllocsPerRun(10, func() { empty = q.Drain() }); empty != nil || allocs != 0 {
			t.Fatalf("%v: empty drain = %v with %v allocs, want nil and 0", v, empty, allocs)
		}
	}
}

func TestCQWriteCostsMatchPaper(t *testing.T) {
	costs := map[CQVariant]sim.Duration{
		CQVanillaRing:   6900,
		CQOptimizedRing: 4800,
		CQOptimized:     2000,
	}
	for v, want := range costs {
		if got := NewCQ(v, 8).WriteCost(); got != want {
			t.Errorf("%v write cost = %v, want %vns", v, got, want)
		}
	}
}

func TestSQBackpressure(t *testing.T) {
	e := sim.NewEngine()
	q := NewSQ("sq", 2)
	var pushedAt sim.Time
	e.Spawn("producer", func(p *sim.Process) {
		q.Push(p, SQE{CollID: 1})
		q.Push(p, SQE{CollID: 2})
		q.Push(p, SQE{CollID: 3}) // blocks until consumer pops
		pushedAt = p.Now()
	})
	e.Spawn("consumer", func(p *sim.Process) {
		p.Sleep(100 * sim.Microsecond)
		if _, ok := q.TryPop(p.Engine()); !ok {
			t.Error("expected SQE")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if pushedAt < sim.Time(100*sim.Microsecond) {
		t.Fatalf("third push completed at %v, before consumer drained", pushedAt)
	}
}

func TestRegistrationValidation(t *testing.T) {
	sys := newSys(2, DefaultConfig())
	runApp(t, sys, 2, func(p *sim.Process, r *RankContext) {
		var c1, c2 *Collective
		var err error
		if c1, err = r.Open(prim.Spec{Kind: prim.AllReduce, Count: 64, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(2)}, WithCollID(1)); err != nil {
			t.Errorf("register: %v", err)
		}
		// Duplicate registration on the same rank must fail.
		if _, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: 64, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(2)}, WithCollID(1)); err == nil {
			t.Error("duplicate registration accepted")
		}
		// Unregistered collective cannot run.
		s := mem.NewBuffer(mem.Float32, 64)
		d := mem.NewBuffer(mem.Float32, 64)
		if err := r.submit(p, 99, launch{send: s, recv: d}); err == nil {
			t.Error("run of unregistered collective accepted")
		}
		// Wrong buffer sizes must fail.
		bad := mem.NewBuffer(mem.Float32, 32)
		if err := c1.LaunchCB(p, bad, d, nil); err == nil {
			t.Error("run with undersized send buffer accepted")
		}
		// Mismatched re-registration from another collective ID is fine,
		// but conflicting spec under the same ID must fail system-wide.
		if r.Rank == 0 {
			if c2, err = r.Open(prim.Spec{Kind: prim.AllReduce, Count: 128, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(2)}, WithCollID(2)); err != nil {
				t.Errorf("register 2: %v", err)
			}
		} else {
			if _, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: 999, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(2)}, WithCollID(2)); err == nil {
				t.Error("conflicting spec for same collective ID accepted")
			}
			if c2, err = r.Open(prim.Spec{Kind: prim.AllReduce, Count: 128, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(2)}, WithCollID(2)); err != nil {
				t.Errorf("register 2 (consistent): %v", err)
			}
		}
		// Both ranks must run collective 2 so neither hangs.
		s2 := mem.NewBuffer(mem.Float32, 128)
		d2 := mem.NewBuffer(mem.Float32, 128)
		if err := c2.LaunchCB(p, s2, d2, nil); err != nil {
			t.Errorf("run 2: %v", err)
		}
		// Collective 1 as well.
		if err := c1.LaunchCB(p, s, d, nil); err != nil {
			t.Errorf("run 1: %v", err)
		}
	})
}

func TestDynamicRegistrationDuringRuntime(t *testing.T) {
	const n = 2
	sys := newSys(n, DefaultConfig())
	runApp(t, sys, n, func(p *sim.Process, r *RankContext) {
		var c1, c2 *Collective
		var err error
		if c1, err = r.Open(prim.Spec{Kind: prim.AllReduce, Count: 64, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(n)}, WithCollID(1)); err != nil {
			t.Errorf("register: %v", err)
			return
		}
		s := mem.NewBuffer(mem.Float32, 64)
		d := mem.NewBuffer(mem.Float32, 64)
		if err := c1.LaunchCB(p, s, d, nil); err != nil {
			t.Errorf("run: %v", err)
		}
		r.WaitAll(p)
		// Register a new collective after the daemon has been running.
		if c2, err = r.Open(prim.Spec{Kind: prim.AllGather, Count: 16, Type: mem.Float32, Ranks: allRanks(n)}, WithCollID(2)); err != nil {
			t.Errorf("dynamic register: %v", err)
			return
		}
		s2 := mem.NewBuffer(mem.Float32, 16)
		d2 := mem.NewBuffer(mem.Float32, 16*n)
		if err := c2.LaunchCB(p, s2, d2, nil); err != nil {
			t.Errorf("run dynamic: %v", err)
		}
	})
	if got := sys.ranks[0].Completed(); got != 2 {
		t.Fatalf("completed %d, want 2", got)
	}
}

func TestDaemonQuitsWhenIdle(t *testing.T) {
	const n = 2
	sys := newSys(n, DefaultConfig())
	runApp(t, sys, n, func(p *sim.Process, r *RankContext) {
		coll, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: 64, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(n)}, WithCollID(1))
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		s := mem.NewBuffer(mem.Float32, 64)
		d := mem.NewBuffer(mem.Float32, 64)
		if err := coll.LaunchCB(p, s, d, nil); err != nil {
			t.Errorf("run: %v", err)
		}
		r.WaitAll(p)
		// Wait well past the quit period: the idle daemon must release
		// the GPU (a device synchronize completes only if it does).
		p.Sleep(5 * sys.Config.QuitPeriod)
		r.dev.Synchronize(p)
		if r.Stats.VoluntaryQuits == 0 {
			t.Errorf("rank %d daemon never quit while idle", r.Rank)
		}
	})
}

func TestMemoryFootprintMatchesPaper(t *testing.T) {
	shared, global, globalShared := MemoryFootprint(1000)
	if shared < 12<<10 || shared > 14<<10 {
		t.Errorf("shared per block = %d, want ≈13KB", shared)
	}
	if global != 4096000 {
		t.Errorf("global per block = %d, want 4MB for 1000 collectives", global)
	}
	if globalShared < 10<<10 || globalShared > 12<<10 {
		t.Errorf("global shared = %d, want ≈11KB", globalShared)
	}
}

func TestSpinPolicyGradientAndBoost(t *testing.T) {
	sp := DefaultSpinPolicy()
	if sp.initialThreshold(0) != sp.InitialFront {
		t.Fatal("front task should get the largest initial threshold")
	}
	if sp.initialThreshold(1) >= sp.initialThreshold(0) {
		t.Fatal("initial threshold should decay with position")
	}
	if sp.initialThreshold(100) != sp.MinInitial {
		t.Fatal("deep positions should floor at MinInitial")
	}
	if got := sp.boost(1000); got != 20000 {
		t.Fatalf("boost(1000) = %d, want 20000", got)
	}
	if got := sp.boost(sp.MaxThreshold); got != sp.MaxThreshold {
		t.Fatal("boost should cap at MaxThreshold")
	}
	naive := NaiveSpinPolicy()
	if naive.initialThreshold(0) != naive.FixedThreshold || naive.initialThreshold(9) != naive.FixedThreshold {
		t.Fatal("naive policy should be position-independent")
	}
	if naive.boost(naive.FixedThreshold) != naive.FixedThreshold {
		t.Fatal("naive policy should not boost")
	}
}

func TestCommunicatorPoolReuse(t *testing.T) {
	c4 := topo.Server3090(4)
	pool := &commPool{net: fabric.Unshared(c4)}
	a := pool.acquire([]int{0, 1, 2}, 1)
	pool.release(a)
	b := pool.acquire([]int{2, 1, 0}, 2) // same set, different order
	if a != b {
		t.Fatal("pool did not reuse released communicator for same rank set")
	}
	c := pool.acquire([]int{0, 1}, 3)
	if c == a {
		t.Fatal("pool reused communicator across different rank sets")
	}
	if pool.Created() != 2 {
		t.Fatalf("created = %d, want 2", pool.Created())
	}
	// A set's released communicators come back newest first, whatever
	// else was released in between.
	d := pool.acquire([]int{1, 0, 2}, 4)
	pool.release(b)
	pool.release(d)
	pool.release(c)
	if got := pool.acquire([]int{0, 2, 1}, 5); got != d {
		t.Fatal("pool did not hand back the most recently released communicator of the set")
	}
	if got := pool.acquire([]int{0, 1, 2}, 6); got != b || len(pool.free) != 1 {
		t.Fatalf("pool handed back another communicator than the set's older one, or holds %d, want 1", len(pool.free))
	}
}

func TestPriorityOrderingPrefersHighPriority(t *testing.T) {
	// Two collectives are submitted back-to-back; under the priority
	// policy the higher-priority one (registered with priority 10)
	// should complete first on every rank even though it is submitted
	// second.
	const n = 2
	cfg := DefaultConfig()
	cfg.Order = OrderPriority
	sys := newSys(n, cfg)
	firstDone := make([]int, n)
	runApp(t, sys, n, func(p *sim.Process, r *RankContext) {
		var c1, c2 *Collective
		var err error
		if c1, err = r.Open(prim.Spec{Kind: prim.AllReduce, Count: 4096, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(n)}, WithCollID(1)); err != nil {
			t.Errorf("register: %v", err)
			return
		}
		if c2, err = r.Open(prim.Spec{Kind: prim.AllReduce, Count: 4096, Type: mem.Float32, Op: mem.Sum, Ranks: allRanks(n)}, WithCollID(2), WithPriority(10)); err != nil {
			t.Errorf("register: %v", err)
			return
		}
		rank := r.Rank
		mk := func() (*mem.Buffer, *mem.Buffer) {
			return mem.NewBuffer(mem.Float32, 4096), mem.NewBuffer(mem.Float32, 4096)
		}
		s1, d1 := mk()
		s2, d2 := mk()
		record := func(id int) Callback {
			return func(error) {
				if firstDone[rank] == 0 {
					firstDone[rank] = id
				}
			}
		}
		if err := c1.LaunchCB(p, s1, d1, record(1)); err != nil {
			t.Errorf("run: %v", err)
		}
		if err := c2.LaunchCB(p, s2, d2, record(2)); err != nil {
			t.Errorf("run: %v", err)
		}
	})
	for rank := 0; rank < n; rank++ {
		if firstDone[rank] != 2 {
			t.Fatalf("rank %d: first completion = coll %d, want high-priority coll 2", rank, firstDone[rank])
		}
	}
}

func TestDisjointGroupsProgressIndependently(t *testing.T) {
	// Two disjoint GPU pairs each run their own collective; neither
	// should wait on the other.
	const n = 4
	sys := newSys(n, DefaultConfig())
	runApp(t, sys, n, func(p *sim.Process, r *RankContext) {
		group := []int{0, 1}
		collID := 1
		if r.Rank >= 2 {
			group = []int{2, 3}
			collID = 2
		}
		coll, err := r.Open(prim.Spec{Kind: prim.AllReduce, Count: 256, Type: mem.Float32, Op: mem.Sum, Ranks: group}, WithCollID(collID))
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		s := mem.NewBuffer(mem.Float32, 256)
		d := mem.NewBuffer(mem.Float32, 256)
		if err := coll.LaunchCB(p, s, d, nil); err != nil {
			t.Errorf("run: %v", err)
		}
	})
	for rank := 0; rank < n; rank++ {
		if got := sys.ranks[rank].Completed(); got != 1 {
			t.Fatalf("rank %d completed %d, want 1", rank, got)
		}
	}
}

func TestOverlappingGroupsFreeGroupingStyle(t *testing.T) {
	// A GPU belonging to several groups (the free-grouping scenario
	// that motivates DFCCL) runs collectives from all of them, invoked
	// in different orders per GPU.
	const n = 4
	sys := newSys(n, DefaultConfig())
	groups := map[int][]int{
		1: {0, 1, 2},
		2: {1, 2, 3},
		3: {0, 3},
		4: {0, 1, 2, 3},
	}
	runApp(t, sys, n, func(p *sim.Process, r *RankContext) {
		var mine []int
		for id, g := range groups {
			for _, rank := range g {
				if rank == r.Rank {
					mine = append(mine, id)
				}
			}
		}
		colls := make(map[int]*Collective, len(mine))
		for _, id := range mine {
			var err error
			colls[id], err = r.Open(prim.Spec{Kind: prim.AllReduce, Count: 512, Type: mem.Float32, Op: mem.Sum, Ranks: groups[id]}, WithCollID(id))
			if err != nil {
				t.Errorf("register %d: %v", id, err)
				return
			}
		}
		// Unique per-rank order: rotate by rank.
		for i := range mine {
			id := mine[(i+r.Rank)%len(mine)]
			s := mem.NewBuffer(mem.Float32, 512)
			d := mem.NewBuffer(mem.Float32, 512)
			if err := colls[id].LaunchCB(p, s, d, nil); err != nil {
				t.Errorf("run %d: %v", id, err)
			}
		}
	})
	wantPerRank := map[int]int{0: 3, 1: 3, 2: 3, 3: 3}
	for rank := 0; rank < n; rank++ {
		if got := sys.ranks[rank].Completed(); got != wantPerRank[rank] {
			t.Fatalf("rank %d completed %d, want %d", rank, got, wantPerRank[rank])
		}
	}
}
