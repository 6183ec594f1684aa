package main

import (
	"errors"
	"fmt"
	"time"

	"dfccl"
	"dfccl/internal/chaos"
	"dfccl/internal/cluster"
	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/ncclsim"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// A probe times calls into one layer's public functions in isolation,
// on the host clock. Each is the median of probeRounds rounds; a round
// is sized to take tens of milliseconds.
const probeRounds = 3

// perOp runs round probeRounds times and returns the median host
// nanoseconds per operation; round returns how many operations it did.
func perOp(round func() int) float64 {
	var ns []float64
	for i := 0; i < probeRounds; i++ {
		began := time.Now()
		ops := round()
		ns = append(ns, float64(time.Since(began))/float64(ops))
	}
	return median(ns)
}

// probeError is how a probe gives up: the program refused or failed a
// call the probe needs, so no number it gave would mean anything.
// runProbes turns it into an ordinary error.
type probeError struct{ err error }

func check(what string, err error) {
	if err != nil {
		panic(probeError{fmt.Errorf("%s probe: %w", what, err)})
	}
}

func mustRun(e *sim.Engine) {
	e.MaxTime = sim.Time(600 * sim.Second)
	check("sim", e.Run())
}

func runProbes(res *runResult, workload string, tiny bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(probeError)
			if !ok {
				panic(r)
			}
			err = pe.err
		}
	}()
	scale := func(n int) int {
		if tiny {
			return max(n/20, 2)
		}
		return n
	}

	// --- sim: one process switch is the unit of all engine work.
	switchNs := func(procs, sleeps int) float64 {
		return perOp(func() int {
			e := sim.NewEngine()
			for i := 0; i < procs; i++ {
				e.Spawn("probe", func(p *sim.Process) {
					for j := 0; j < sleeps; j++ {
						p.Sleep(1)
					}
				})
			}
			mustRun(e)
			return procs * sleeps
		})
	}
	res.put("sim.switch_ns", switchNs(32, scale(600)))
	res.put("sim.switch_deep_ns", switchNs(512, scale(40)))
	res.put("sim.cond_pingpong_ns", perOp(func() int {
		e := sim.NewEngine()
		a, b := sim.NewCond("a"), sim.NewCond("b")
		turn, n := 0, scale(8000)
		side := func(me int, mine, other *sim.Cond) func(*sim.Process) {
			return func(p *sim.Process) {
				for i := 0; i < n; i++ {
					for turn != me {
						mine.Wait(p)
					}
					turn = 1 - me
					other.Signal(e)
				}
			}
		}
		e.Spawn("ping", side(0, a, b))
		e.Spawn("pong", side(1, b, a))
		mustRun(e)
		return 2 * n
	}))
	res.put("sim.bcast_wake_ns", perOp(func() int {
		e := sim.NewEngine()
		c := sim.NewCond("gen")
		gen, n, waiters := 0, scale(250), 64
		for i := 0; i < waiters; i++ {
			e.Spawn("waiter", func(p *sim.Process) {
				for gen < n {
					c.Wait(p)
				}
			})
		}
		e.Spawn("caster", func(p *sim.Process) {
			for gen < n {
				p.Sleep(1)
				gen++
				c.Broadcast(e)
			}
		})
		mustRun(e)
		return n * waiters
	}))
	res.put("sim.spawn_ns", perOp(func() int {
		e := sim.NewEngine()
		n := scale(4000)
		for i := 0; i < n; i++ {
			e.Spawn("probe", func(*sim.Process) {})
		}
		mustRun(e)
		return n
	}))

	// --- mem
	res.put("mem.conn_rw_ns", perOp(func() int {
		e := sim.NewEngine()
		c := mem.NewConnector("probe", 8)
		chunk := make([]byte, 4096)
		n := scale(100000)
		for i := 0; i < n; i++ {
			c.Write(e, chunk)
			c.Read(e)
		}
		return n
	}))
	res.put("mem.reduce_ns_per_kb", perOp(func() int {
		const kb = 64
		dst, src := make([]byte, kb<<10), make([]byte, kb<<10)
		n := scale(200)
		for i := 0; i < n; i++ {
			mem.Reduce(mem.Sum, mem.Float32, dst, src)
		}
		return n * kb
	}))

	// --- fabric: transfers between machines 0 and 2 of a 4x8 cluster
	// cross the spine.
	big := func() *topo.Cluster { return topo.NewCluster(4, 8, topo.RTX3090, topo.DefaultLinks) }
	xferNs := func(net *fabric.Network, flows, each, bytes int) float64 {
		return perOp(func() int {
			e := sim.NewEngine()
			for i := 0; i < flows; i++ {
				route := net.RouteBetween(i%32, (i+16)%32)
				e.Spawn("flow", func(p *sim.Process) {
					for j := 0; j < each; j++ {
						net.Transfer(p, route, bytes)
					}
				})
			}
			mustRun(e)
			return flows * each
		})
	}
	res.put("fabric.unshared_xfer_ns", xferNs(fabric.Unshared(big()), 1, scale(20000), 64<<10))
	res.put("fabric.lone_xfer_ns", xferNs(fabric.Shared(big(), fabric.OversubConfig(4)), 1, scale(8000), 64<<10))
	res.put("fabric.contended_xfer_ns", xferNs(fabric.Shared(big(), fabric.OversubConfig(4)), 64, scale(40), 256<<10))

	// --- prim: an 8-rank 4 KB ring all-reduce stepped without core.
	ring8 := dfccl.AllReduce(1024, dfccl.Float32, dfccl.Sum, seqRanks(0, 8)...)
	res.put("prim.step_ns", perOp(func() int {
		c := dfccl.Server3090(8)
		ring := prim.BuildRingOn(fabric.Unshared(c), ring8, "probe")
		prims := 0
		for rep := 0; rep < scale(60); rep++ {
			e := sim.NewEngine()
			execs := make([]*prim.Executor, ring8.N())
			for pos := range execs {
				x := ring.ExecutorFor(c, ring8, pos, dfccl.NewBuffer(dfccl.Float32, 1024), dfccl.NewBuffer(dfccl.Float32, 1024))
				execs[pos] = x
				e.Spawn("exec", func(p *sim.Process) {
					for x.StepOnce(p, -1) != prim.Done {
					}
				})
			}
			mustRun(e)
			for _, x := range execs {
				prims += x.PrimsExecuted
			}
		}
		return prims
	}))
	res.put("prim.seq_ring_ns", perOp(func() int {
		n := scale(4000)
		for i := 0; i < n; i++ {
			ring8.SequenceFor(i % 8)
		}
		return n
	}))
	res.put("prim.seq_hier_ns", perOp(func() int {
		c := dfccl.MultiNode3090(2)
		spec := dfccl.AllReduce(16<<10, dfccl.Float32, dfccl.Sum, seqRanks(0, 16)...)
		spec.Algo = prim.AlgoHierarchical
		g := prim.GroupByNode(c, spec.Ranks)
		n := scale(2000)
		for i := 0; i < n; i++ {
			spec.HierSequenceFor(i%16, g)
		}
		return n
	}))

	// --- core, through the facade, on two ranks so that little but core
	// runs.
	pair := dfccl.AllReduce(1024, dfccl.Float32, dfccl.Sum, 0, 1).Timing()
	empty := dfccl.NewBuffer(dfccl.Float32, 0)
	twoRanks := func(body func(p *dfccl.Process, ctx *dfccl.RankContext)) {
		lib := dfccl.New(dfccl.Server3090(2))
		lib.SetTimeLimit(600 * dfccl.Second)
		for rank := 0; rank < 2; rank++ {
			lib.Go("probe", func(p *dfccl.Process) {
				ctx := lib.Init(p, rank)
				body(p, ctx)
				ctx.Destroy(p)
			})
		}
		check("core", lib.Run())
	}
	res.put("core.init_destroy_us", perOp(func() int {
		n := scale(300)
		for i := 0; i < n; i++ {
			twoRanks(func(*dfccl.Process, *dfccl.RankContext) {})
		}
		return n
	})/1e3)
	res.put("core.relaunch_us", perOp(func() int {
		n := scale(600)
		twoRanks(func(p *dfccl.Process, ctx *dfccl.RankContext) {
			coll, err := ctx.Open(pair)
			for i := 0; err == nil && i < n; i++ {
				var fut *dfccl.Future
				if fut, err = coll.Launch(p, empty, empty); err == nil {
					err = fut.Wait(p)
				}
			}
			check("core.relaunch", err)
			_ = coll.Close(p) // nothing outstanding: Close cannot fail
		})
		return n
	})/1e3)
	res.put("core.reform_us", probeReform(scale(40)))

	// --- cluster
	res.put("cluster.generate_us", perOp(func() int {
		n := scale(500)
		for i := 0; i < n; i++ {
			_, err := cluster.Generate(cluster.GenConfig{Seed: int64(i), Jobs: 100})
			check("cluster.generate", err)
		}
		return n
	})/1e3)
	res.put("cluster.admit_ns", perOp(func() int {
		jobs, err := cluster.Generate(cluster.GenConfig{Seed: 1, Jobs: 64})
		check("cluster.admit", err)
		pending := make([]cluster.Pending, len(jobs))
		for i, j := range jobs {
			pending[i] = cluster.Pending{Spec: j, Arrived: sim.Time(j.Arrival)}
		}
		view := cluster.View{Load: make([]int, 16), Slots: 2, Lost: make([]bool, 16), MachineOf: make([]int, 16)}
		for r := range view.MachineOf {
			view.MachineOf[r] = r / 8
			view.Load[r] = r % 3 // some GPUs full, some not
		}
		n := scale(20000)
		for i := 0; i < n; i++ {
			cluster.PriorityPolicy{}.Admit(pending, view)
		}
		return n
	}))

	// --- chaos: one data-parallel job on 2x4 GPUs, rank 5 killed
	// mid-run and revived later, against the same job undisturbed.
	chaosRun := func(faults chaos.Schedule) *chaos.Report {
		rep, err := chaos.Run(chaos.Config{
			Workload: "dp", Cluster: topo.NewCluster(2, 4, topo.RTX3090, topo.DefaultLinks),
			Ranks: seqRanks(0, 8), Iterations: 8, Schedule: faults,
		})
		check("chaos", err)
		return rep
	}
	faults := chaos.Schedule{
		{At: 500 * sim.Microsecond, Kind: chaos.Kill, Rank: 5},
		{At: 900 * sim.Microsecond, Kind: chaos.Revive, Rank: 5},
	}
	var faulted *chaos.Report
	res.put("chaos.kill_revive_ms", perOp(func() int {
		faulted = chaosRun(faults)
		return 1
	})/1e6)
	res.put("chaos.virt_overhead_us", float64(faulted.Elapsed-chaosRun(nil).Elapsed)/1e3)

	// --- ncclsim: the same all-reduce on the NCCL baseline and on
	// DFCCL, second launch of each (the first pays one-off set-up).
	c, spec := dfccl.Server3090(8), ring8.Timing()
	if workload == "bulk_data" {
		c = topo.NewCluster(2, 4, topo.RTX3090, topo.DefaultLinks)
		spec = dfccl.AllReduce(1<<20, dfccl.Float32, dfccl.Sum, seqRanks(0, 8)...).Timing()
	}
	var ncclE2E sim.Duration
	res.put("ncclsim.run_ms", perOp(func() int {
		e := sim.NewEngine()
		lib := ncclsim.New(e, c)
		comm := lib.NewComm(spec.Ranks)
		for rank := 0; rank < c.Size(); rank++ {
			e.Spawn("nccl", func(p *sim.Process) {
				st := lib.Device(rank).NewStream()
				for it := 0; it < 2; it++ {
					start := p.Now()
					comm.Launch(p, st, rank, spec, empty, empty).Wait(p)
					ncclE2E = p.Now().Sub(start)
				}
			})
		}
		mustRun(e)
		return 1
	})/1e6)
	var dfcclE2E sim.Duration
	lib := dfccl.New(c)
	lib.SetTimeLimit(600 * dfccl.Second)
	for rank := 0; rank < c.Size(); rank++ {
		lib.Go("dfccl", func(p *dfccl.Process) {
			ctx := lib.Init(p, rank)
			coll, err := ctx.Open(spec)
			for it := 0; err == nil && it < 2; it++ {
				start := p.Now()
				var fut *dfccl.Future
				if fut, err = coll.Launch(p, empty, empty); err == nil {
					err = fut.Wait(p)
				}
				dfcclE2E = p.Now().Sub(start)
			}
			check("ncclsim", err)
			_ = coll.Close(p)
			ctx.Destroy(p)
		})
	}
	check("ncclsim", lib.Run())
	res.put("ncclsim.virt_ratio", ratio(float64(dfcclE2E), float64(ncclE2E)))
	return nil
}

// probeReform kills one of four ranks mid-collective and times the
// survivors' Reform calls (host µs, median).
func probeReform(rounds int) float64 {
	var us []float64
	spec := dfccl.AllReduce(64<<10, dfccl.Float32, dfccl.Sum, 0, 1, 2, 3).Timing()
	empty := dfccl.NewBuffer(dfccl.Float32, 0)
	for i := 0; i < rounds; i++ {
		lib := dfccl.New(dfccl.Server3090(4))
		lib.SetTimeLimit(600 * dfccl.Second)
		const victim = 2
		for rank := 0; rank < 4; rank++ {
			lib.Go("elastic", func(p *dfccl.Process) {
				ctx := lib.Init(p, rank)
				coll, err := ctx.Open(spec)
				check("core.reform", err)
				fut, err := coll.Launch(p, empty, empty)
				if err == nil {
					err = fut.Wait(p)
				}
				if !errors.Is(err, dfccl.ErrRankLost) {
					check("core.reform", fmt.Errorf("kill not observed: %v", err))
				}
				if rank == victim {
					return
				}
				began := time.Now()
				re, err := coll.Reform(p)
				us = append(us, float64(time.Since(began))/1e3)
				if err == nil {
					if fut, err = re.Launch(p, empty, empty); err == nil {
						err = fut.Wait(p)
					}
				}
				check("core.reform", err)
				_ = re.Close(p)
				ctx.Destroy(p)
			})
		}
		lib.Go("fault", func(p *dfccl.Process) {
			p.Sleep(30 * dfccl.Microsecond)
			lib.KillRank(victim)
		})
		check("core.reform", lib.Run())
	}
	return median(us)
}
