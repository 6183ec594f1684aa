package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"dfccl"
	"dfccl/internal/cluster"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// A unit is one complete simulation: build the library, spawn the
// ranks, run to completion, verify the outputs. unitEnv is what the
// harness hands a unit; unitOut is what it gets back.
type unitEnv struct {
	id   int   // index of the unit within its phase; spans of one unit share it
	seed int64 // run seed + id
	tr   *tracer
}

type unitOut struct {
	ops    int                // collective launches (jobs, in cluster_churn) attempted
	failed int                // 0, or ops: one bad output fails the whole unit
	virtNs int64              // virtual makespan
	model  map[string]float64 // model counters of this unit
	err    string
}

// runner is a workload after set-up: inputs generated, reference
// values computed, buffers allocated.
type runner interface {
	unit(env *unitEnv) unitOut
}

type workloadDef struct {
	name, why string
	setup     func(seed int64, tiny bool) runner
}

// workloads lists the five workloads; the reasons are repeated in
// BENCHMARK.json and README.md.
var workloads = []workloadDef{
	{"ordered_small", "one small all-reduce relaunched in lock-step: launch path (SQ, daemon, CQ, poller) and sim process switching; bypasses preemption, fabric and bulk data", setupOrderedSmall},
	{"disorder_preempt", "nine collectives, every rank launching its eight in its own random order (paper 6.1): the preemption mechanism itself; guards the preemption path against launch-path gains", setupDisorderPreempt},
	{"bulk_data", "4 MB real-data ring collectives on 2x4 GPUs: few events per byte, so mem and prim data movement dominate; engine, CQ and fabric changes should not move it", setupBulkData},
	{"fabric_contended", "four concurrent timing-only collectives over 32 ranks on a 4:1 oversubscribed shared fabric: ~100 live processes, deep event queue, fabric re-solves", setupFabricContended},
	{"cluster_churn", "200 short jobs in a Poisson burst with two rank kills under priority admission: Init/Open/Close/Destroy churn, pool reuse, abort and requeue", setupClusterChurn},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// --- collectives driven through the facade -------------------------

// collDef is one collective of a facade workload with its reusable
// buffers and the expected output of every participating position.
type collDef struct {
	spec       dfccl.Spec
	send, recv []*dfccl.Buffer // by position in spec.Ranks
	want       [][]byte        // nil for timing-only collectives
}

// pattern gives small seeded integers, so float32 sums are exact.
func pattern(salt int64, pos, i int) float64 {
	return float64((int64(i)*7+int64(pos)*3+salt)%17 + 1)
}

// newColl allocates and fills a data-carrying collective's buffers and
// computes its expected outputs from the send values in closed form.
func newColl(spec dfccl.Spec, salt int64) collDef {
	n := spec.N()
	c := collDef{spec: spec, send: make([]*dfccl.Buffer, n), recv: make([]*dfccl.Buffer, n), want: make([][]byte, n)}
	for pos := 0; pos < n; pos++ {
		sc, rc := prim.BufferCountsFor(spec, pos)
		c.send[pos] = dfccl.NewBuffer(spec.Type, sc)
		c.recv[pos] = dfccl.NewBuffer(spec.Type, rc)
		for i := 0; i < sc; i++ {
			c.send[pos].SetFloat64(i, pattern(salt, pos, i))
		}
	}
	sum := func(i int) float64 {
		var s float64
		for _, b := range c.send {
			s += b.Float64At(i)
		}
		return s
	}
	expect := func(count int, at func(i int) float64) []byte {
		b := dfccl.NewBuffer(spec.Type, count)
		for i := 0; i < count; i++ {
			b.SetFloat64(i, at(i))
		}
		return b.Bytes()
	}
	switch spec.Kind {
	case prim.AllReduce:
		all := expect(spec.Count, sum)
		for pos := range c.want {
			c.want[pos] = all
		}
	case prim.AllGather:
		all := expect(spec.Count*n, func(i int) float64 { return c.send[i/spec.Count].Float64At(i % spec.Count) })
		for pos := range c.want {
			c.want[pos] = all
		}
	case prim.ReduceScatter:
		seg := spec.Count / n
		for pos := range c.want {
			pos := pos
			c.want[pos] = expect(seg, func(i int) float64 { return sum(pos*seg + i) })
		}
	case prim.Broadcast:
		all := expect(spec.Count, c.send[spec.Root].Float64At)
		for pos := range c.want {
			c.want[pos] = all
		}
	case prim.AllToAll:
		for pos := range c.want {
			pos := pos
			c.want[pos] = expect(spec.Count*n, func(i int) float64 {
				return c.send[i/spec.Count].Float64At(pos*spec.Count + i%spec.Count)
			})
		}
	default:
		panic(fmt.Sprintf("benchmark: no reference for %v", spec.Kind))
	}
	return c
}

// newTimingColl is a collective that moves no bytes: zero-length
// buffers, nothing to verify but completion.
func newTimingColl(spec dfccl.Spec) collDef {
	n := spec.N()
	c := collDef{spec: spec.Timing(), send: make([]*dfccl.Buffer, n), recv: make([]*dfccl.Buffer, n)}
	empty := dfccl.NewBuffer(spec.Type, 0)
	for pos := 0; pos < n; pos++ {
		c.send[pos], c.recv[pos] = empty, empty
	}
	return c
}

func seqRanks(lo, hi int) []int {
	r := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		r = append(r, i)
	}
	return r
}

// facadeWorkload drives collectives through the dfccl facade. Every
// rank sleeps a seeded skew, opens its collectives, runs iters
// iterations and closes them. In lock-step mode an iteration launches
// and waits each collective in turn; otherwise it launches all of the
// rank's collectives (in the rank's own order when shuffle is set) and
// then waits for all.
type facadeWorkload struct {
	cluster  func() *dfccl.Cluster
	oversub  float64 // > 0: shared fabric with this oversubscription
	colls    []collDef
	iters    int
	lockstep bool
	shuffle  bool

	// Filled by prepare.
	mine   [][][2]int  // by rank: its collectives as (collective, position)
	orders [][][][]int // by pattern, rank, iteration: launch order of mine[rank]
}

// corpus is the number of disorder patterns. A pattern gives every rank
// its own random launch order per iteration. The patterns are fixed and
// unit seed s runs pattern s mod corpus, so a run covers every pattern
// equally often whatever its seed. Which orders collide moves a unit's
// virtual time by ±20 %; drawing them afresh per seed made the median of
// 32 units swing by 10 % between seeds, which no bound worth having
// could cover. The seed still decides the rank skews and where in the
// corpus a run starts.
const corpus = 16

// prepare works out what each rank opens and, with shuffle set, the
// corpus of disorder patterns.
func (w *facadeWorkload) prepare() *facadeWorkload {
	ranks := w.cluster().Size()
	w.mine = make([][][2]int, ranks)
	for ci, cd := range w.colls {
		for pos, r := range cd.spec.Ranks {
			w.mine[r] = append(w.mine[r], [2]int{ci, pos})
		}
	}
	if !w.shuffle {
		return w
	}
	w.orders = make([][][][]int, corpus)
	for pat := range w.orders {
		rng := rand.New(rand.NewSource(int64(pat)))
		w.orders[pat] = make([][][]int, ranks)
		for rank := range w.orders[pat] {
			for it := 0; it < w.iters; it++ {
				w.orders[pat][rank] = append(w.orders[pat][rank], rng.Perm(len(w.mine[rank])))
			}
		}
	}
	return w
}

// maxSkew bounds the seeded start skew of a rank: ranks of a real job
// do not arrive at the same nanosecond, and it makes virtual time
// depend on the seed in every workload.
const maxSkew = 50 * dfccl.Microsecond

func (w *facadeWorkload) unit(env *unitEnv) unitOut {
	unitSpan := env.host("unit", -1)
	defer unitSpan.end()
	build := env.host("build", unitSpan.id)
	c := w.cluster()
	cfg := dfccl.DefaultConfig()
	if w.oversub > 0 {
		cfg.Network = dfccl.SharedFabric(c, dfccl.OversubFabricConfig(w.oversub))
	}
	cfg.Recorder = env.recorder()
	lib := dfccl.NewWithConfig(c, cfg)
	lib.SetTimeLimit(600 * dfccl.Second)
	for _, cd := range w.colls {
		if cd.want == nil {
			continue
		}
		for _, b := range cd.recv {
			clear(b.Bytes())
		}
	}
	rng := rand.New(rand.NewSource(env.seed))
	out := unitOut{ops: w.iters * len(w.colls)}
	fail := func(format string, a ...any) {
		if out.err == "" {
			out.err = fmt.Sprintf(format, a...)
		}
	}
	for rank := 0; rank < c.Size(); rank++ {
		skew := dfccl.Duration(rng.Int63n(int64(maxSkew)))
		mine := w.mine[rank]
		var orders [][]int
		if w.shuffle {
			pat := (env.seed%corpus + corpus) % corpus
			orders = w.orders[pat][rank]
		}
		lib.Go("rank", func(p *dfccl.Process) {
			p.Sleep(skew)
			ctx := lib.Init(p, rank)
			handles := make([]*dfccl.Collective, len(mine))
			for k, m := range mine {
				t := env.now()
				h, err := ctx.Open(w.colls[m[0]].spec, dfccl.WithCollID(m[0]))
				if err != nil {
					fail("rank %d open %d: %v", rank, m[0], err)
					return
				}
				env.call("open", unitSpan.id, m[0], rank, t, p.Now())
				handles[k] = h
			}
			for it := 0; it < w.iters; it++ {
				for k := range mine {
					if orders != nil {
						k = orders[it][k]
					}
					ci, pos := mine[k][0], mine[k][1]
					cd := &w.colls[ci]
					start := p.Now()
					if w.lockstep {
						fut, err := handles[k].Launch(p, cd.send[pos], cd.recv[pos])
						if err == nil {
							err = fut.Wait(p)
						}
						if err != nil {
							fail("rank %d collective %d: %v", rank, ci, err)
							return
						}
						env.launch(unitSpan.id, ci, rank, start, p.Now(), fut.CoreExecTime())
						continue
					}
					err := handles[k].LaunchCB(p, cd.send[pos], cd.recv[pos], func(err error) {
						if err != nil {
							fail("rank %d collective %d: %v", rank, ci, err)
						}
						env.launch(unitSpan.id, ci, rank, start, p.Now(), ctx.CoreExecTime(ci))
					})
					if err != nil {
						fail("rank %d launch %d: %v", rank, ci, err)
						return
					}
				}
				ctx.WaitAll(p)
			}
			for k, h := range handles {
				t := env.now()
				if err := h.Close(p); err != nil {
					fail("rank %d close %d: %v", rank, mine[k][0], err)
				}
				env.call("close", unitSpan.id, mine[k][0], rank, t, p.Now())
			}
			ctx.Destroy(p)
		})
	}
	build.end()

	run := env.host("run", unitSpan.id)
	if err := lib.Run(); err != nil {
		// sim.ErrDeadlock and the time limit both arrive here.
		fail("run: %v", err)
	}
	run.end()

	verify := env.host("verify", unitSpan.id)
	out.virtNs = int64(lib.Now())
	reg := lib.Metrics()
	out.model = map[string]float64{}
	for _, name := range modelCounters {
		out.model[name] = float64(reg.Counter(name))
	}
	if got := reg.Counter("core.completions"); out.err == "" && got != reg.Counter("core.launches") {
		fail("%d of %d launches completed", got, reg.Counter("core.launches"))
	}
	for ci, cd := range w.colls {
		for pos, want := range cd.want {
			if !bytes.Equal(cd.recv[pos].Bytes(), want) {
				fail("collective %d (%v) position %d: wrong output", ci, cd.spec.Kind, pos)
			}
		}
	}
	verify.end()
	if out.err != "" {
		out.failed = out.ops
	}
	env.endUnit(lib.Now())
	return out
}

// modelCounters are the Library.Metrics() counters a unit reports. A
// host-speed change must leave every one of them identical.
var modelCounters = []string{
	"core.launches", "core.completions", "core.preemptions", "core.context_saves",
	"core.context_loads", "core.daemon_starts", "core.voluntary_quits", "core.sqes_read",
	"core.comms_created", "core.comms_reused",
	"prim.prims_executed", "prim.spin_aborts", "prim.bytes_shm", "prim.bytes_rdma",
}

func setupOrderedSmall(seed int64, tiny bool) runner {
	w := &facadeWorkload{
		cluster:  func() *dfccl.Cluster { return dfccl.Server3090(8) },
		colls:    []collDef{newColl(dfccl.AllReduce(1024, dfccl.Float32, dfccl.Sum, seqRanks(0, 8)...), seed)},
		iters:    200,
		lockstep: true,
	}
	if tiny {
		w.iters = 4
	}
	return w.prepare()
}

func setupDisorderPreempt(seed int64, tiny bool) runner {
	all := seqRanks(0, 8)
	f32 := dfccl.Float32
	specs := []dfccl.Spec{
		dfccl.AllReduce(1<<10, f32, dfccl.Sum, all...),
		dfccl.AllReduce(16<<10, f32, dfccl.Sum, all...),
		dfccl.AllReduce(64<<10, f32, dfccl.Sum, all...),
		dfccl.AllGather(2<<10, f32, all...),
		dfccl.ReduceScatter(2<<10, f32, dfccl.Sum, all...),
		dfccl.Broadcast(4<<10, f32, 0, all...),
		dfccl.AllToAll(512, f32, all...),
		dfccl.AllReduce(8<<10, f32, dfccl.Sum, seqRanks(0, 4)...),
		dfccl.AllReduce(8<<10, f32, dfccl.Sum, seqRanks(4, 8)...),
	}
	w := &facadeWorkload{
		cluster: func() *dfccl.Cluster { return dfccl.Server3090(8) },
		iters:   2,
		shuffle: true,
	}
	for i, s := range specs {
		w.colls = append(w.colls, newColl(s, seed+int64(i)))
	}
	return w.prepare()
}

func setupBulkData(seed int64, tiny bool) runner {
	all := seqRanks(0, 8)
	n := 1 << 20
	if tiny {
		n = 1 << 14
	}
	f32 := dfccl.Float32
	w := &facadeWorkload{
		cluster: func() *dfccl.Cluster { return topo.NewCluster(2, 4, topo.RTX3090, topo.DefaultLinks) },
		colls: []collDef{
			newColl(dfccl.AllReduce(n, f32, dfccl.Sum, all...), seed),
			newColl(dfccl.AllGather(n/8, f32, all...), seed+1),
			newColl(dfccl.ReduceScatter(n, f32, dfccl.Sum, all...), seed+2),
		},
		iters:    1,
		lockstep: true,
	}
	return w.prepare()
}

func setupFabricContended(seed int64, tiny bool) runner {
	all := seqRanks(0, 32)
	big, small := 256<<10, 8<<10
	if tiny {
		big, small = 8<<10, 1<<10
	}
	f32 := dfccl.Float32
	w := &facadeWorkload{
		cluster: func() *dfccl.Cluster { return topo.NewCluster(4, 8, topo.RTX3090, topo.DefaultLinks) },
		oversub: 4,
		colls: []collDef{
			newTimingColl(dfccl.AllReduce(big, f32, dfccl.Sum, all...)),
			newTimingColl(dfccl.AllGather(small, f32, all...)),
			newTimingColl(dfccl.AllToAll(small, f32, all...)),
			newTimingColl(dfccl.ReduceScatter(small, f32, dfccl.Sum, all...)),
		},
		iters: 1,
	}
	return w.prepare()
}

// --- cluster_churn ---------------------------------------------------

// churnWorkload is one cluster.Run per unit: a seeded Poisson burst of
// short jobs under priority admission, with two seeded rank kills.
//
// SlotsPerGPU is 1, not the driver's default 2. With two tenants on a
// killed GPU the requeued job is re-placed before the dead rank has
// released its registrations, fails again at once, and exhausts its
// attempts: about one seed in five ends in "exceeded 5 attempts"
// (ROADMAP item 1's kill path). With one tenant per GPU, 360 seeded
// runs had no failure. Two tenants per GPU also make the virtual
// makespan heavy-tailed (3.5 to 116 ms for the same job count), which
// no median over a 15 s run holds steady.
type churnWorkload struct {
	jobs int
}

func setupClusterChurn(_ int64, tiny bool) runner {
	w := &churnWorkload{jobs: 200}
	if tiny {
		w.jobs = 8
	}
	return w
}

func (w *churnWorkload) unit(env *unitEnv) unitOut {
	unitSpan := env.host("unit", -1)
	defer unitSpan.end()
	out := unitOut{ops: w.jobs}
	build := env.host("build", unitSpan.id)
	c := dfccl.MultiNode3090(2)
	jobs, err := cluster.Generate(cluster.GenConfig{Seed: env.seed, Jobs: w.jobs, Rate: 20000, MaxIters: 3})
	if err != nil {
		out.err, out.failed = err.Error(), out.ops
		return out
	}
	// The kills land while the arrival burst is being served.
	rng := rand.New(rand.NewSource(env.seed))
	burst := int64(jobs[len(jobs)-1].Arrival)
	kills := []cluster.KillEvent{
		{At: sim.Duration(burst/4 + rng.Int63n(burst/4)), Rank: rng.Intn(c.Size())},
		{At: sim.Duration(burst/2 + rng.Int63n(burst/2)), Rank: rng.Intn(c.Size())},
	}
	build.end()

	run := env.host("run", unitSpan.id)
	rec := env.recorder()
	rep, err := cluster.Run(cluster.Config{
		Cluster: c, Jobs: jobs, Policy: cluster.PriorityPolicy{},
		SlotsPerGPU: 1, Oversub: 4, Kills: kills, Recorder: rec,
	})
	run.end()

	verify := env.host("verify", unitSpan.id)
	switch {
	case rep.Hang:
		out.err = "hang: " + rep.Err
	case err != nil:
		out.err = err.Error()
	case !rep.Ok():
		out.err = "report not ok"
	case len(rep.JobBytes) == 0:
		out.err = "no per-job bytes"
	}
	out.virtNs = int64(rep.Elapsed)
	out.model = map[string]float64{
		"cluster.admissions": float64(rep.Admissions), "cluster.rejections": float64(rep.Rejections),
		"cluster.requeues": float64(rep.Requeues), "cluster.kills_applied": float64(rep.KillsApplied),
		"core.comms_created": float64(rep.PoolCreated), "core.comms_reused": float64(rep.PoolReused),
	}
	if rec != nil {
		// cluster.Run keeps its library to itself; in the traced run the
		// daemon events and sends its recorder saw stand in for the
		// registry's counters.
		daemon := rec.CountByKind()
		_, shm, rdma := rec.SendBytesBy()
		out.model["core.launches"] = float64(daemon[trace.EvComplete])
		out.model["core.preemptions"] = float64(daemon[trace.EvPreempt])
		out.model["core.daemon_starts"] = float64(daemon[trace.EvStart])
		out.model["core.voluntary_quits"] = float64(daemon[trace.EvQuit])
		out.model["core.sqes_read"] = float64(daemon[trace.EvFetch])
		out.model["prim.prims_executed"] = float64(len(rec.Actions))
		out.model["prim.bytes_shm"] = float64(shm)
		out.model["prim.bytes_rdma"] = float64(rdma)
	}
	env.jobs(rep)
	verify.end()
	if out.err != "" {
		out.failed = out.ops
	}
	env.endUnit(rep.Elapsed)
	return out
}
