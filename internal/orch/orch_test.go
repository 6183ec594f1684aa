package orch

import (
	"errors"
	"testing"

	"dfccl/internal/core"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// newBackend builds the backend a test names; cfg configures DFCCL.
func newBackend(name string, e *sim.Engine, c *topo.Cluster, cfg core.Config) Backend {
	switch name {
	case "static":
		return NewStaticSort(e, c)
	case "singlestream":
		return NewNCCLSingleStream(e, c)
	case "horovod":
		return NewHorovod(e, c)
	case "kungfu":
		return NewKungFu(e, c)
	}
	return NewDFCCL(e, c, cfg)
}

func spec2(count int, ranks []int) prim.Spec {
	return prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float32, Op: mem.Sum, Ranks: ranks, TimingOnly: true}
}

// driveDP runs iters iterations of nColl collectives per rank through a
// backend and returns the end time.
func driveDP(t *testing.T, e *sim.Engine, b Backend, nRanks, nColl, iters int) sim.Time {
	t.Helper()
	e.MaxTime = sim.Time(600 * sim.Second)
	ranks := make([]int, nRanks)
	for i := range ranks {
		ranks[i] = i
	}
	for rank := 0; rank < nRanks; rank++ {
		rank := rank
		e.Spawn("drive", func(p *sim.Process) {
			for c := 0; c < nColl; c++ {
				if err := b.Register(p, rank, c, spec2(1024, ranks), 0, nil, nil); err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
			for it := 0; it < iters; it++ {
				for c := nColl - 1; c >= 0; c-- {
					p.Sleep(500 * sim.Microsecond) // compute between tensors
					if err := b.Launch(p, rank, c); err != nil {
						t.Errorf("launch: %v", err)
						return
					}
				}
				b.WaitAll(p, rank)
			}
			b.Teardown(p, rank)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("%s: %v (blocked: %v)", b.Name(), err, e.BlockedProcesses())
	}
	return e.Now()
}

func TestAllBackendsCompleteDP(t *testing.T) {
	times := map[string]sim.Time{}
	for _, name := range []string{"static", "horovod", "kungfu", "dfccl"} {
		e := sim.NewEngine()
		b := newBackend(name, e, topo.Server3090(4), core.DefaultConfig())
		times[name] = driveDP(t, e, b, 4, 6, 3)
	}
	// Coordinated backends pay negotiation/enforcement costs: they
	// must be slower than the static plan.
	if times["horovod"] <= times["static"] {
		t.Errorf("horovod (%v) not slower than static (%v)", times["horovod"], times["static"])
	}
	if times["kungfu"] <= times["static"] {
		t.Errorf("kungfu (%v) not slower than static (%v)", times["kungfu"], times["static"])
	}
}

func TestBackendNames(t *testing.T) {
	e := sim.NewEngine()
	c := topo.Server3090(2)
	names := map[string]bool{}
	for _, b := range []Backend{
		NewStaticSort(e, c), NewNCCLSingleStream(e, c), NewHorovod(e, c),
		NewKungFu(e, c), NewDFCCL(e, c, core.DefaultConfig()),
	} {
		if b.Name() == "" || names[b.Name()] {
			t.Fatalf("duplicate or empty backend name %q", b.Name())
		}
		names[b.Name()] = true
	}
}

func TestRegisterValidation(t *testing.T) {
	e := sim.NewEngine()
	c := topo.Server3090(2)
	b := NewStaticSort(e, c)
	e.Spawn("t", func(p *sim.Process) {
		if err := b.Register(p, 0, 1, spec2(64, []int{0, 1}), 0, nil, nil); err != nil {
			t.Errorf("register: %v", err)
		}
		// Conflicting re-registration must fail.
		if err := b.Register(p, 1, 1, spec2(128, []int{0, 1}), 0, nil, nil); err == nil {
			t.Error("conflicting registration accepted")
		}
		// The NCCL runtime has no tuning table to resolve AlgoAuto.
		auto := spec2(64, []int{0, 1})
		auto.Algo = prim.AlgoAuto
		if err := b.Register(p, 0, 2, auto, 0, nil, nil); err == nil {
			t.Error("AlgoAuto registration accepted")
		}
		// Launch of unknown collective must fail.
		if err := b.Launch(p, 0, 99); err == nil {
			t.Error("launch of unregistered collective accepted")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterRefusals: every backend refuses a rank outside the
// spec's ranks, also one that brings its own buffers, and a second
// registration of a live collective on the same rank, and a refused
// registration leaves no state behind — on DFCCL, an ID whose Open the
// full collective buffer refused stays free for any spec.
func TestRegisterRefusals(t *testing.T) {
	for _, name := range []string{"static", "singlestream", "horovod", "kungfu", "dfccl"} {
		t.Run(name, func(t *testing.T) {
			e := sim.NewEngine()
			cfg := core.DefaultConfig()
			cfg.MaxCollectives = 1
			b := newBackend(name, e, topo.Server3090(4), cfg)
			e.Spawn("t", func(p *sim.Process) {
				pair := []int{0, 1}
				send, recv := mem.NewBuffer(mem.Float32, 64), mem.NewBuffer(mem.Float32, 64)
				if err := b.Register(p, 2, 1, spec2(64, pair), 0, send, recv); err == nil {
					t.Error("non-member rank with its own buffers accepted")
				}
				if err := b.Register(p, 2, 1, spec2(64, pair), 0, nil, nil); err == nil {
					t.Error("non-member rank accepted")
				}
				a2a := prim.Spec{Kind: prim.AllToAll, Count: 32, Type: mem.Float32, Ranks: pair}
				var ov *core.BufferOverlapError
				if err := b.Register(p, 0, 1, a2a, 0, send, send); !errors.As(err, &ov) {
					t.Errorf("all-to-all in place: %v, want a BufferOverlapError", err)
				}
				if err := b.Register(p, 0, 1, spec2(64, pair), 0, nil, nil); err != nil {
					t.Errorf("register 1 after refusals: %v", err)
				}
				defer b.Teardown(p, 0)
				if err := b.Register(p, 0, 1, spec2(64, pair), 0, nil, nil); err == nil {
					t.Error("second registration of 1 on rank 0 accepted")
				}
				if _, ok := b.(*DFCCL); !ok {
					return
				}
				if err := b.Register(p, 0, 2, spec2(64, pair), 0, nil, nil); err == nil {
					t.Error("register 2 accepted past a full collective buffer")
				}
				if err := b.Deregister(p, 0, 1); err != nil {
					t.Errorf("deregister 1: %v", err)
				}
				if err := b.Register(p, 0, 2, spec2(128, pair), 0, nil, nil); err != nil {
					t.Errorf("register 2 with a new spec after its refusal: %v", err)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSecondRegisterKeepsRunsSerial: rank 0 of a 2-GPU float32
// all-reduce (ranks sending 1 and 2) launches, registers the
// collective again, and launches again; rank 1 launches twice. The
// second registration is refused, so rank 0's runs stay serialized on
// one stream and every recv element is 3. A backend that accepted it
// with a fresh stream let the two runs overlap on the same connectors.
func TestSecondRegisterKeepsRunsSerial(t *testing.T) {
	const count = 64 << 10
	for _, name := range []string{"static", "singlestream", "horovod", "kungfu", "dfccl"} {
		t.Run(name, func(t *testing.T) {
			e := sim.NewEngine()
			b := newBackend(name, e, topo.Server3090(2), core.DefaultConfig())
			spec := prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 1}}
			recvs := make([]*mem.Buffer, 2)
			for rank := range 2 {
				e.Spawn("rank", func(p *sim.Process) {
					defer b.Teardown(p, rank)
					send, recv := mem.NewBuffer(mem.Float32, count), mem.NewBuffer(mem.Float32, count)
					send.Fill(float64(rank + 1))
					recvs[rank] = recv
					if err := b.Register(p, rank, 1, spec, 0, send, recv); err != nil {
						t.Errorf("rank %d register: %v", rank, err)
						return
					}
					for run := range 2 {
						if err := b.Launch(p, rank, 1); err != nil {
							t.Errorf("rank %d launch %d: %v", rank, run, err)
						}
						if rank == 0 && run == 0 {
							if err := b.Register(p, rank, 1, spec, 0, send, recv); err == nil {
								t.Error("second registration on rank 0 accepted")
							}
						}
					}
					b.WaitAll(p, rank)
				})
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			for rank, recv := range recvs {
				for i := range count {
					if v := recv.Float64At(i); v != 3 {
						t.Fatalf("rank %d recv[%d] = %v, want 3", rank, i, v)
					}
				}
			}
		})
	}
}

func TestKungFuAdoptsRankZeroOrder(t *testing.T) {
	e := sim.NewEngine()
	c := topo.Server3090(2)
	k := NewKungFu(e, c)
	e.MaxTime = sim.Time(600 * sim.Second)
	ranks := []int{0, 1}
	for rank := 0; rank < 2; rank++ {
		rank := rank
		e.Spawn("kf", func(p *sim.Process) {
			for c := 0; c < 3; c++ {
				if err := k.Register(p, rank, c, spec2(256, ranks), 0, nil, nil); err != nil {
					t.Errorf("register: %v", err)
					return
				}
			}
			// Rank 0 announces 2,0,1; rank 1 announces 1,0,2: the
			// adopted order must be rank 0's.
			order := []int{2, 0, 1}
			if rank == 1 {
				order = []int{1, 0, 2}
			}
			for _, c := range order {
				if err := k.Launch(p, rank, c); err != nil {
					t.Errorf("launch: %v", err)
					return
				}
			}
			k.WaitAll(p, rank)
			k.Teardown(p, rank)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{2, 0, 1}
	if len(k.order) != 3 {
		t.Fatalf("order = %v", k.order)
	}
	for i := range want {
		if k.order[i] != want[i] {
			t.Fatalf("adopted order = %v, want %v", k.order, want)
		}
	}
}

func TestHorovodWaveGatingDelaysLaunch(t *testing.T) {
	// With wave gating, no collective launches until every collective
	// has been announced; completion time must therefore exceed the
	// announcement span plus all negotiation cycles.
	e := sim.NewEngine()
	c := topo.Server3090(2)
	h := NewHorovod(e, c)
	end := driveDP(t, e, h, 2, 4, 1)
	// 4 tensors × 500µs compute ≈ 2ms announcements; 4 cycles × 5ms
	// negotiation must dominate.
	if end < sim.Time(4*5*sim.Millisecond) {
		t.Fatalf("end = %v, expected ≥ 20ms of negotiation", end)
	}
}

func TestCommunicatorPerCollective(t *testing.T) {
	// Two collectives over the same ranks must not share connectors
	// (concurrent execution would corrupt in-flight chunks).
	e := sim.NewEngine()
	c := topo.Server3090(2)
	b := NewStaticSort(e, c)
	e.Spawn("t", func(p *sim.Process) {
		ranks := []int{0, 1}
		if err := b.Register(p, 0, 1, spec2(64, ranks), 0, nil, nil); err != nil {
			t.Errorf("register: %v", err)
		}
		if err := b.Register(p, 0, 2, spec2(64, ranks), 0, nil, nil); err != nil {
			t.Errorf("register: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if find(b.colls, 1).comm == find(b.colls, 2).comm {
		t.Fatal("collectives share a communicator")
	}
}

func TestDFCCLBackendStats(t *testing.T) {
	e := sim.NewEngine()
	cluster := topo.Server3090(2)
	d := NewDFCCL(e, cluster, core.DefaultConfig())
	driveDP(t, e, d, 2, 3, 2)
	// Stats must be reachable post-run (rank contexts kept).
	s := d.Sys.Init(nil, 0).Stats
	if s.CQEsWritten == 0 {
		t.Fatalf("stats = %+v, want CQEs written", s)
	}
}

// TestSingleStreamDeadlocksOnDisorder reproduces Fig. 1(c) at the
// backend level: two ranks launch two collectives in opposite orders
// on one stream per GPU. The single-stream NCCL baseline circularly
// waits and the engine reports a global deadlock; DFCCL completes the
// identical schedule.
func TestSingleStreamDeadlocksOnDisorder(t *testing.T) {
	run := func(mk func(e *sim.Engine, c *topo.Cluster) Backend) error {
		e := sim.NewEngine()
		e.MaxTime = sim.Time(600 * sim.Second)
		cluster := topo.Server3090(2)
		b := mk(e, cluster)
		ranks := []int{0, 1}
		for rank := 0; rank < 2; rank++ {
			rank := rank
			e.Spawn("drive", func(p *sim.Process) {
				for c := 0; c < 2; c++ {
					if err := b.Register(p, rank, c, spec2(4096, ranks), 0, nil, nil); err != nil {
						t.Errorf("register: %v", err)
						return
					}
				}
				order := []int{0, 1}
				if rank == 1 {
					order = []int{1, 0}
				}
				for _, c := range order {
					if err := b.Launch(p, rank, c); err != nil {
						t.Errorf("launch: %v", err)
						return
					}
				}
				b.WaitAll(p, rank)
				b.Teardown(p, rank)
			})
		}
		return e.Run()
	}
	if err := run(func(e *sim.Engine, c *topo.Cluster) Backend { return NewNCCLSingleStream(e, c) }); err == nil {
		t.Fatal("single-stream NCCL completed a disordered schedule, want deadlock")
	}
	if err := run(func(e *sim.Engine, c *topo.Cluster) Backend { return NewDFCCL(e, c, core.DefaultConfig()) }); err != nil {
		t.Fatalf("dfccl: %v", err)
	}
}

// TestCallerBuffersCarryRealData checks that Register with caller-owned
// buffers moves their bytes through both the DFCCL backend and an
// NCCL-backed one, and that Deregister recycles DFCCL communicators.
func TestCallerBuffersCarryRealData(t *testing.T) {
	const n, count, cycles = 4, 64, 3
	for _, which := range []string{"dfccl", "static"} {
		which := which
		e := sim.NewEngine()
		e.MaxTime = sim.Time(600 * sim.Second)
		cluster := topo.Server3090(n)
		var b Backend
		if which == "dfccl" {
			b = NewDFCCL(e, cluster, core.DefaultConfig())
		} else {
			b = NewStaticSort(e, cluster)
		}
		ranks := []int{0, 1, 2, 3}
		recvs := make([]*mem.Buffer, n)
		// Cycle barrier: all ranks must deregister (returning the
		// communicator to DFCCL's pool) before any rank reopens.
		arrived, gen := 0, 0
		barCond := sim.NewCond("test.bar")
		bar := func(p *sim.Process) {
			g := gen
			arrived++
			if arrived == n {
				arrived, gen = 0, gen+1
				barCond.Broadcast(p.Engine())
				return
			}
			for g == gen {
				barCond.Wait(p)
			}
		}
		for rank := 0; rank < n; rank++ {
			rank := rank
			e.Spawn("drive", func(p *sim.Process) {
				for cy := 0; cy < cycles; cy++ {
					collID := 10 + cy
					spec := prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float64, Op: mem.Sum, Ranks: ranks}
					send := mem.NewBuffer(mem.Float64, count)
					recv := mem.NewBuffer(mem.Float64, count)
					send.Fill(float64(rank + 1))
					recvs[rank] = recv
					if err := b.Register(p, rank, collID, spec, 0, send, recv); err != nil {
						t.Errorf("register data: %v", err)
						return
					}
					if err := b.Launch(p, rank, collID); err != nil {
						t.Errorf("launch: %v", err)
						return
					}
					b.Wait(p, rank, collID)
					if err := b.Deregister(p, rank, collID); err != nil {
						t.Errorf("deregister: %v", err)
						return
					}
					bar(p)
				}
				b.Teardown(p, rank)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
		for rank, r := range recvs {
			if got := r.Float64At(count - 1); got != 10 {
				t.Fatalf("%s rank %d = %v, want 10", which, rank, got)
			}
		}
		if which == "dfccl" {
			if created := b.CommsCreated(); created != 1 {
				t.Fatalf("dfccl created %d communicators across %d cycles, want 1 (pooled)", created, cycles)
			}
		}
	}
}

// TestRaggedAllToAllvOnCallerBuffers runs a skewed variable-count
// all-to-all through both the DFCCL and NCCL-backed orchestrators:
// ragged caller-owned buffers (row/column sums of the count matrix),
// verified numerically.
func TestRaggedAllToAllvOnCallerBuffers(t *testing.T) {
	counts := [][]int{
		{1, 12, 0},
		{4, 2, 9},
		{0, 5, 3},
	}
	const n = 3
	for _, which := range []string{"dfccl", "static"} {
		e := sim.NewEngine()
		e.MaxTime = sim.Time(600 * sim.Second)
		cluster := topo.Server3090(n)
		var b Backend
		if which == "dfccl" {
			b = NewDFCCL(e, cluster, core.DefaultConfig())
		} else {
			b = NewStaticSort(e, cluster)
		}
		ranks := []int{0, 1, 2}
		spec := prim.Spec{Kind: prim.AllToAllv, Type: mem.Float64, Ranks: ranks, Counts: counts}
		recvs := make([]*mem.Buffer, n)
		for rank := 0; rank < n; rank++ {
			rank := rank
			e.Spawn("drive", func(p *sim.Process) {
				sendN, recvN := prim.BufferCountsFor(spec, rank)
				send := mem.NewBuffer(mem.Float64, sendN)
				recv := mem.NewBuffer(mem.Float64, recvN)
				recvs[rank] = recv
				off := 0
				for dst := 0; dst < n; dst++ {
					for i := 0; i < counts[rank][dst]; i++ {
						send.SetFloat64(off, float64(100*rank+10*dst+i))
						off++
					}
				}
				if err := b.Register(p, rank, 42, spec, 0, send, recv); err != nil {
					t.Errorf("%s register data: %v", which, err)
					return
				}
				if err := b.Launch(p, rank, 42); err != nil {
					t.Errorf("%s launch: %v", which, err)
					return
				}
				b.Wait(p, rank, 42)
				b.Teardown(p, rank)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
		for pos := 0; pos < n; pos++ {
			off := 0
			for src := 0; src < n; src++ {
				for i := 0; i < counts[src][pos]; i++ {
					want := float64(100*src + 10*pos + i)
					if got := recvs[pos].Float64At(off); got != want {
						t.Fatalf("%s pos %d block from %d elem %d = %v, want %v", which, pos, src, i, got, want)
					}
					off++
				}
			}
		}
	}
}
