package prim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// boostPacer is the daemon's stickiness in miniature (Pacer): every
// success doubles the spin budget up to a cap, every preemption starts
// over from the floor.
type boostPacer struct {
	floor, budget sim.Duration
	boosts        int
}

func (b *boostPacer) Budget() sim.Duration { return b.budget }

func (b *boostPacer) Progressed() {
	b.boosts++
	if b.budget = 2 * b.budget; b.budget > 64*b.floor {
		b.budget = 64 * b.floor
	}
}

// machineCase is one collective on one cluster and one way of driving its
// executors through it.
type machineCase struct {
	name    string
	cluster *topo.Cluster
	spec    Spec
	shared  bool
	// drive: "block" steps one primitive at a time with no spin budget;
	// "preempt" steps with a budget small enough to stick, sleeps and
	// retries; "run" asks for whole runs under a boostPacer; "abort" is
	// "block" with the collective aborted partway; "abort-spin" is
	// "preempt" with it aborted partway.
	drive string
	kill  sim.Duration // when the abort lands
}

// machineOutcome is everything observable about a run of a machineCase
// (exported fields: a mismatch is reported field by field through reflect).
type machineOutcome struct {
	Err         string
	Fingerprint uint64
	End         sim.Time
	Recv        [][]byte
	Results     [][]StepResult // per rank, what every step or run returned
	Cursors     [][4]int       // per rank, (Stage, Round, Step, Phase) at the end
	Prims       []int
	SpinAborts  []int
	SentBy      []TransportBytes
	Boosts      []int
	Rec         trace.Recorder
	StuckAt1    int // preemptions that froze a half-done action
}

// awaitRun is a whole run under pacer with the Runner's waits made by p
// itself: Start, Await, Result.
func awaitRun(r *Runner, p *sim.Process, x *Executor, pacer Pacer) StepResult {
	r.Start(p, x, pacer)
	p.Await(r)
	return r.Result()
}

// run drives c to its end, through the Runner (StepOnce, awaitRun) or
// through the blocking code it replaced.
func (c machineCase) run(blocking bool) machineOutcome {
	var out machineOutcome
	net := fabric.Unshared(c.cluster)
	if c.shared {
		net = fabric.Shared(c.cluster, fabric.OversubConfig(4))
	}
	net.SetRecorder(&out.Rec)
	wirings := NewWirings(new(mem.Chunks), net, "m")
	n := c.spec.N()
	e := sim.NewEngine()
	e.MaxTime = sim.Time(sim.Second) // a rank that never comes back fails the case, not the suite's timeout
	dead := false
	execs := make([]*Executor, n)
	recvs := make([]*mem.Buffer, n)
	out.Results = make([][]StepResult, n)
	out.Boosts = make([]int, n)
	for pos := 0; pos < n; pos++ {
		var send *mem.Buffer
		if !c.spec.TimingOnly {
			sendCount, recvCount := BufferCountsFor(c.spec, pos)
			send = mem.NewBuffer(c.spec.Type, sendCount)
			recvs[pos] = mem.NewBuffer(c.spec.Type, recvCount)
			for i := 0; i < sendCount; i++ {
				send.SetFloat64(i, float64(1+pos*1000+i%97))
			}
		}
		x := wirings.ExecutorFor(c.cluster, c.spec, pos, send, recvs[pos])
		x.Rec, x.RecColl, x.Job = &out.Rec, 7, 1+pos%2
		x.AbortCheck = func() bool { return dead }
		execs[pos] = x
		step := (*Executor).StepOnce
		if blocking {
			step = (*Executor).blockingStepOnce
		}
		floor := sim.Duration(1+pos) * sim.Microsecond
		jitter := sim.Duration(3+2*pos) * sim.Microsecond
		e.Spawn(fmt.Sprintf("rank%d", pos), func(p *sim.Process) {
			var runner Runner
			pacer := &boostPacer{floor: floor}
			for {
				var res StepResult
				switch {
				case c.drive == "block" || c.drive == "abort":
					res = step(x, p, -1)
				case c.drive == "preempt" || c.drive == "abort-spin":
					res = step(x, p, floor)
				case blocking: // "run", as the daemon's loop was written
					pacer.budget = floor
					for res = step(x, p, pacer.Budget()); res == Progressed; res = step(x, p, pacer.Budget()) {
						pacer.Progressed()
					}
				default:
					pacer.budget = floor
					res = awaitRun(&runner, p, x, pacer)
				}
				out.Results[pos] = append(out.Results[pos], res)
				switch res {
				case Done, Aborted:
					out.Boosts[pos] = pacer.boosts
					return
				case Stuck:
					if x.Phase == 1 {
						out.StuckAt1++
					}
					p.Sleep(jitter) // preempted; resume later
				}
			}
		})
	}
	if c.kill > 0 {
		e.Spawn("killer", func(p *sim.Process) {
			p.Sleep(c.kill)
			dead = true
			wirings.WakeAll(p.Engine())
		})
	}
	if err := e.Run(); err != nil {
		out.Err = fmt.Sprintf("%v (blocked: %v)", err, e.BlockedProcesses())
	}
	out.Fingerprint, out.End = e.Fingerprint(), e.Now()
	for pos, x := range execs {
		if recvs[pos] != nil {
			out.Recv = append(out.Recv, recvs[pos].Bytes())
		}
		out.Cursors = append(out.Cursors, [4]int{x.Stage, x.Round, x.Step, x.Phase})
		out.Prims = append(out.Prims, x.PrimsExecuted)
		out.SpinAborts = append(out.SpinAborts, x.SpinAborts)
		out.SentBy = append(out.SentBy, x.BytesSentBy)
	}
	return out
}

// machineCorpus draws one cluster shape, rank subset and payload per
// (kind, algorithm, data or timing-only, unshared or 4:1 shared fabric) and
// crosses it with every way of driving the executors.
func machineCorpus() []machineCase {
	rng := rand.New(rand.NewSource(20261004))
	var cases []machineCase
	for _, kind := range []Kind{AllReduce, AllGather, ReduceScatter, Reduce, Broadcast, AllToAll, AllToAllv} {
		for _, algo := range []Algorithm{AlgoRing, AlgoHierarchical} {
			for variant := 0; variant < 4; variant++ {
				machines, perNode := 1+rng.Intn(3), 1+rng.Intn(4)
				total := machines * perNode
				n := 1 + rng.Intn(total)
				if variant == 0 && total > 1 {
					n = 2 + rng.Intn(total-1) // at least one variant per kind has peers
				}
				spec := Spec{
					Kind: kind, Algo: algo, Type: mem.Float64, Op: []mem.ReduceOp{mem.Sum, mem.Max, mem.Min}[rng.Intn(3)],
					Ranks: rng.Perm(total)[:n], ChunkElems: 1 + rng.Intn(8), TimingOnly: variant%2 == 1,
				}
				switch kind {
				case AllToAllv:
					spec.Counts = make([][]int, n)
					for i := range spec.Counts {
						spec.Counts[i] = make([]int, n)
						for j := range spec.Counts[i] {
							spec.Counts[i][j] = rng.Intn(20)
						}
					}
				case Reduce, Broadcast:
					spec.Count, spec.Root = 1+rng.Intn(40), rng.Intn(n)
				default:
					spec.Count = n * (1 + rng.Intn(12)) // reduce-scatter needs a multiple of n
				}
				if spec.Validate() != nil {
					continue // the hierarchy has no reduce or broadcast
				}
				c := machineCase{
					name:    fmt.Sprintf("%v-%v-m%dg%d-n%d-v%d", kind, algo, machines, perNode, n, variant),
					cluster: topo.NewCluster(machines, perNode, topo.RTX3090, topo.DefaultLinks),
					spec:    spec, shared: variant >= 2,
				}
				for _, drive := range []string{"block", "preempt", "run", "abort", "abort-spin"} {
					c.drive = drive
					cases = append(cases, c)
				}
			}
		}
	}
	return cases
}

// TestMachineMatchesBlocking: the Runner is the blocking StepOnce it
// replaced (blocking_test.go), wait for wait. Over the cross-algorithm
// corpus (ring and hierarchical, all seven kinds, real data and
// timing-only, independent pricing and a 4:1 shared fabric) driven five
// ways (no spin budget; a budget small enough to stick, including halfway
// through an action; whole runs under a Pacer against the loop the daemon
// used to write; and the first two with the collective aborted in
// mid-flight), both must dispatch the same (time, seq, process) sequence
// and leave the same data, cursors, counters, step outcomes and recorded
// action, send and flow streams. It fails when the send writes its chunk
// before the transfer's sleep (fingerprints differ) and when a wake from a
// connector wait forgets the abort check (an aborted case never ends).
func TestMachineMatchesBlocking(t *testing.T) {
	stuckAt1, aborted, boosts := 0, 0, 0
	for _, c := range machineCorpus() {
		if c.drive == "abort" || c.drive == "abort-spin" {
			// Land the abort where the fault-free run is 40% through.
			free := c
			free.drive = map[string]string{"abort": "block", "abort-spin": "preempt"}[c.drive]
			c.kill = sim.Duration(free.run(true).End) * 2 / 5
			if c.kill == 0 {
				continue // a single rank moves nothing over the wire
			}
		}
		want, got := c.run(true), c.run(false)
		if want.Err != "" {
			t.Fatalf("%s/%s: the blocking reference: %s", c.name, c.drive, want.Err)
		}
		if !reflect.DeepEqual(got, want) {
			var differ []string
			g, w := reflect.ValueOf(got), reflect.ValueOf(want)
			for i := 0; i < g.NumField(); i++ {
				if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
					differ = append(differ, g.Type().Field(i).Name)
				}
			}
			t.Fatalf("%s/%s: the machine and the blocking code it replaced disagree in %v: fingerprint %#x, end %v, err %q; want %#x, %v, %q",
				c.name, c.drive, differ, got.Fingerprint, got.End, got.Err, want.Fingerprint, want.End, want.Err)
		}
		stuckAt1 += want.StuckAt1
		for pos, res := range want.Results {
			if res[len(res)-1] == Aborted {
				aborted++
			}
			boosts += want.Boosts[pos]
		}
	}
	if stuckAt1 < 100 || aborted < 100 || boosts < 1000 {
		t.Fatalf("%d preemptions at Phase 1, %d aborted ranks, %d paced primitives: the corpus does not exercise resumption, abort or a paced run",
			stuckAt1, aborted, boosts)
	}
}

// TestStepAllocatesNothing: a primitive costs no allocation, stepped one
// at a time through StepOnce or run by the sequence through a Runner;
// measured from inside the process that drives rank 0 of an 8-rank ring.
func TestStepAllocatesNothing(t *testing.T) {
	c := topo.Server3090(8)
	spec := Spec{Kind: AllReduce, Count: 1 << 16, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 1, 2, 3, 4, 5, 6, 7}, ChunkElems: 64}
	ring := BuildRingOn(fabric.Unshared(c), spec, "alloc")
	e := sim.NewEngine()
	for pos := 0; pos < spec.N(); pos++ {
		x := ring.ExecutorFor(c, spec, pos, mem.NewBuffer(spec.Type, spec.Count), mem.NewBuffer(spec.Type, spec.Count))
		if pos > 0 {
			e.Spawn("peer", func(p *sim.Process) {
				for x.StepOnce(p, -1) != Done {
				}
			})
			continue
		}
		e.Spawn("probe", func(p *sim.Process) {
			for i := 0; i < 200; i++ { // the ring's chunks and the engine's queue reach their peak
				x.StepOnce(p, -1)
			}
			if n := testing.AllocsPerRun(500, func() { x.StepOnce(p, -1) }); n != 0 {
				t.Errorf("%v allocations per StepOnce, want 0", n)
			}
			var runner Runner
			pacer := &boostPacer{floor: sim.Microsecond}
			if n := testing.AllocsPerRun(500, func() {
				pacer.budget = pacer.floor
				awaitRun(&runner, p, x, pacer)
			}); n != 0 {
				t.Errorf("%v allocations per run through a Runner, want 0", n)
			}
			for x.StepOnce(p, -1) != Done {
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestCursorInvariant: a primitive that completes at or before the cursor
// of the one before it (a context restored wrong) panics, naming the kind,
// the rank position and both cursors; Reset starts the order afresh.
func TestCursorInvariant(t *testing.T) {
	c := topo.Server3090(2)
	spec := Spec{Kind: AllReduce, Count: 64, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 1}, ChunkElems: 8}
	ring := BuildRingOn(fabric.Unshared(c), spec, "cursor")
	e := sim.NewEngine()
	for pos := 0; pos < 2; pos++ {
		x := ring.ExecutorFor(c, spec, pos, mem.NewBuffer(spec.Type, 64), mem.NewBuffer(spec.Type, 64))
		e.Spawn(fmt.Sprintf("rank%d", pos), func(p *sim.Process) {
			for x.StepOnce(p, -1) != Done {
			}
			x.Reset(x.SendBuf, x.RecvBuf)
			for x.StepOnce(p, -1) != Done { // the same cursors again, after a Reset
			}
			x.Stage, x.Round, x.Step = 0, 1, 0 // a stale context
			x.StepOnce(p, -1)
		})
	}
	err := e.Run()
	want := `sim: process "rank1" panicked: prim: all-reduce rank-pos 1 completed stage 0 round 1 step 0 after stage 0 round 3 step 1: the cursor went back`
	if err == nil || err.Error() != want {
		t.Fatalf("Run = %v\nwant %s", err, want)
	}
}

// BenchmarkRingPrimitive is the host cost of one primitive of an 8-rank
// 4 KB ring all-reduce stepped without core (fresh engine and executors
// per collective, as in the benchmark module's prim.step_ns), and how many
// coroutine resumes it takes.
func BenchmarkRingPrimitive(b *testing.B) {
	c := topo.Server3090(8)
	spec := Spec{Kind: AllReduce, Count: 1024, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 1, 2, 3, 4, 5, 6, 7}}
	ring := BuildRingOn(fabric.Unshared(c), spec, "bench")
	prims, resumes := 0, uint64(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		execs := make([]*Executor, spec.N())
		for pos := range execs {
			x := ring.ExecutorFor(c, spec, pos, mem.NewBuffer(spec.Type, 1024), mem.NewBuffer(spec.Type, 1024))
			execs[pos] = x
			e.Spawn("exec", func(p *sim.Process) {
				for x.StepOnce(p, -1) != Done {
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		for _, x := range execs {
			prims += x.PrimsExecuted
		}
		resumes += e.Resumes()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(prims), "ns/prim")
	b.ReportMetric(float64(resumes)/float64(prims), "resumes/prim")
}
