package prim

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// rsValue is rank r's element i in the reduce-scatter property test:
// values whose reduction is exact in any order and in every element
// type, so the closed form below is the only right answer, to the byte.
func rsValue(op mem.ReduceOp, seed int64, r, i int) float64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(r)*0xbf58476d1ce4e5b9 ^ uint64(i)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	if op == mem.Prod {
		return [...]float64{-2, -1, 1, 2, 3}[h%5] // |product| ≤ 3^8
	}
	return float64(int(h%2001) - 1000)
}

// rsWant is the closed form of position pos's reduce-scatter output over
// the ranks at ring positions alive: element j is op over those ranks of
// their element pos·m+j, m the per-rank share.
func rsWant(spec Spec, seed int64, alive []int, pos int) *mem.Buffer {
	m := spec.Count / spec.N()
	want := mem.NewBuffer(spec.Type, m)
	for j := 0; j < m; j++ {
		acc := rsValue(spec.Op, seed, alive[0], pos*m+j)
		for _, r := range alive[1:] {
			v := rsValue(spec.Op, seed, r, pos*m+j)
			switch spec.Op {
			case mem.Sum:
				acc += v
			case mem.Prod:
				acc *= v
			case mem.Max:
				acc = max(acc, v)
			case mem.Min:
				acc = min(acc, v)
			}
		}
		want.SetFloat64(j, acc)
	}
	return want
}

// garbage is a recv buffer of count elements whose every byte is 0xa5:
// anything of it left in a result shows.
func garbage(t mem.DataType, count int) *mem.Buffer {
	b := mem.NewBuffer(t, count)
	for i := range b.Bytes() {
		b.Bytes()[i] = 0xa5
	}
	return b
}

// rsRun drives one reduce-scatter over ws the way the daemon does, with a
// small spin budget and ranks of different speeds. A rank that comes back
// Stuck in the middle of an action (Phase 1: sent, not yet received) is
// frozen there: it keeps only its dynamic context, its executor is
// rebuilt from scratch over its wiring while it is switched out, and it
// resumes from the saved context. A position whose stop is non-negative
// dies after that many steps; the others then observe the abort.
// It returns how many Phase-1 freezes happened and which positions
// finished Done.
func rsRun(t *testing.T, c *topo.Cluster, ws *Wirings, execs []*Executor, spec Spec, sends, recvs []*mem.Buffer, stop []int) (frozen int, done []bool) {
	t.Helper()
	e := sim.NewEngine()
	e.MaxTime = sim.Time(10 * sim.Second)
	dead := false
	done = make([]bool, len(execs))
	for i, x := range execs {
		x.Reset(sends[i], recvs[i])
		abort := func() bool { return dead }
		x.AbortCheck = abort
		e.Spawn("rank", func(p *sim.Process) {
			for steps := 0; ; steps++ {
				if steps == stop[i] {
					dead = true
					ws.WakeAll(p.Engine())
					return
				}
				switch x.StepOnce(p, sim.Microsecond) {
				case Done:
					done[i] = true
					return
				case Aborted:
					return
				case Stuck:
					if x.Phase != 1 {
						p.Sleep(sim.Duration(3+5*i) * sim.Microsecond)
						continue
					}
					frozen++
					stage, round, step := x.Stage, x.Round, x.Step
					p.Sleep(sim.Duration(3+5*i) * sim.Microsecond)
					ws.Rebuild(x, c, spec, i)
					x.SendBuf, x.RecvBuf, x.AbortCheck = sends[i], recvs[i], abort
					x.Stage, x.Round, x.Step, x.Phase, x.Initialized = stage, round, step, 1, true
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("%v: %v", spec, err)
	}
	return frozen, done
}

// TestReduceScatterProperty holds the flat reduce-scatter, which works in
// the recv buffer and reads its own contributions from the send buffer,
// to the closed form, byte for byte: four ops × four element types, n ∈
// {1, 2, 3, 5, 8}, chunk sizes that do and do not divide the per-rank
// share (and the default, one round), recv buffers that start as
// garbage, ranks frozen at Phase 1 with their executors rebuilt, and,
// for n ≥ 2, a rank killed mid-run after which the survivors drain,
// re-form over the surviving ranks (rebuilding their executors in place,
// as a recycled registration does) and run again. The send buffers are
// bit-identical afterwards.
func TestReduceScatterProperty(t *testing.T) {
	c := topo.NewCluster(2, 4, topo.RTX3090, topo.DefaultLinks)
	frozen, killed := 0, 0
	for _, n := range []int{1, 2, 3, 5, 8} {
		count := 12 * n * max(n-1, 1) // divisible by n and by the n-1 survivors
		for _, typ := range []mem.DataType{mem.Float32, mem.Float64, mem.Int32, mem.Int64} {
			for _, op := range []mem.ReduceOp{mem.Sum, mem.Prod, mem.Max, mem.Min} {
				for _, chunk := range []int{4, 5, 0} {
					seed := int64(1000*n + 100*int(typ) + 10*int(op) + chunk)
					ranks := []int{0, 4, 1, 5, 2, 6, 3, 7}[:n]
					spec := Spec{Kind: ReduceScatter, Count: count, Type: typ, Op: op, Ranks: ranks, ChunkElems: chunk}
					name := fmt.Sprintf("n=%d %v %v chunk=%d", n, typ, op, chunk)
					ws := NewWirings(new(mem.Chunks), fabric.Unshared(c), "rs")
					execs := make([]*Executor, n)
					sends, recvs, origs := make([]*mem.Buffer, n), make([]*mem.Buffer, n), make([][]byte, n)
					all := make([]int, n)
					for i := range execs {
						execs[i] = ws.ExecutorFor(c, spec, i, nil, nil)
						all[i] = i
						sends[i] = mem.NewBuffer(typ, count)
						for j := 0; j < count; j++ {
							sends[i].SetFloat64(j, rsValue(op, seed, i, j))
						}
						origs[i] = bytes.Clone(sends[i].Bytes())
						recvs[i] = garbage(typ, count/n)
					}
					check := func(what string, spec Spec, alive []int, recvs []*mem.Buffer) {
						for q, i := range alive {
							if want := rsWant(spec, seed, alive, q); !bytes.Equal(recvs[q].Bytes(), want.Bytes()) {
								t.Fatalf("%s, %s: position %d holds %v…, want %v…", name, what, q, recvs[q].Float64At(0), want.Float64At(0))
							}
							if !bytes.Equal(sends[i].Bytes(), origs[i]) {
								t.Fatalf("%s, %s: rank at position %d had its send buffer written", name, what, i)
							}
						}
					}
					stop := make([]int, n)
					for i := range stop {
						stop[i] = -1
					}
					f, _ := rsRun(t, c, ws, execs, spec, sends, recvs, stop)
					frozen += f
					check("run", spec, all, recvs)
					if n == 1 {
						continue
					}

					// Kill the middle position a few steps in, then re-form.
					victim := n / 2
					stop[victim] = int(seed % 3)
					for i := range recvs {
						recvs[i] = garbage(typ, count/n)
					}
					if _, done := rsRun(t, c, ws, execs, spec, sends, recvs, stop); slices.Contains(slices.Delete(done, victim, victim+1), false) {
						killed++ // a survivor aborted
					}
					ws.DrainConnectors(sim.NewEngine())
					var survivors []int
					var survExecs []*Executor
					var survSends, survRecvs []*mem.Buffer
					for i := range execs {
						if i != victim {
							survivors = append(survivors, i)
							survExecs = append(survExecs, execs[i])
							survSends = append(survSends, sends[i])
							survRecvs = append(survRecvs, garbage(typ, count/(n-1)))
						}
					}
					re := spec
					re.Ranks = nil
					for _, i := range survivors {
						re.Ranks = append(re.Ranks, ranks[i])
					}
					for q, x := range survExecs {
						ws.Rebuild(x, c, re, q)
					}
					stop[victim] = -1
					rsRun(t, c, ws, survExecs, re, survSends, survRecvs, stop[:n-1])
					check("re-formed", re, survivors, survRecvs)
				}
			}
		}
	}
	if frozen == 0 || killed == 0 {
		t.Fatalf("%d Phase-1 freezes and %d kills: the schedules no longer exercise them", frozen, killed)
	}
}

// TestReduceScatterNeedsNoScratch is the flat reduce-scatter's byte
// budget: an 8-rank float32 reduce-scatter of 1 Mi elements, run by
// executors new to a warmed-up wiring (as every run of a freshly built
// system is), allocates under 1 MiB of heap. A scratch copy of the send
// vector would be 4 MiB per rank, 32 MiB in all.
func TestReduceScatterNeedsNoScratch(t *testing.T) {
	const n, count = 8, 1 << 20
	c := topo.NewCluster(2, 4, topo.RTX3090, topo.DefaultLinks)
	spec := Spec{Kind: ReduceScatter, Count: count, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 1, 2, 3, 4, 5, 6, 7}}
	ws := NewWirings(new(mem.Chunks), fabric.Unshared(c), "rs")
	sends, recvs := make([]*mem.Buffer, n), make([]*mem.Buffer, n)
	for i := range sends {
		sends[i], recvs[i] = mem.NewBuffer(spec.Type, count), mem.NewBuffer(spec.Type, count/n)
	}
	run := func() {
		e := sim.NewEngine()
		for i := range sends {
			x := ws.ExecutorFor(c, spec, i, sends[i], recvs[i])
			e.Spawn("rank", func(p *sim.Process) {
				for x.StepOnce(p, -1) != Done {
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // the connectors' chunk memory
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a run allocated %d bytes, budget 1 MiB", got)
	}
}

// TestRunsLeaveSendBuffersAlone: every kind, on the ring and (where it
// has one) the hierarchical schedule, leaves every send buffer
// bit-identical, however long the run reads it.
func TestRunsLeaveSendBuffersAlone(t *testing.T) {
	c := topo.NewCluster(2, 2, topo.RTX3090, topo.DefaultLinks)
	ranks := []int{0, 2, 1, 3}
	counts := [][]int{{2, 9, 4, 5}, {7, 1, 6, 3}, {0, 8, 2, 9}, {5, 3, 7, 1}}
	checked := 0
	for kind := AllReduce; kind <= AllToAllv; kind++ {
		for _, algo := range []Algorithm{AlgoRing, AlgoHierarchical} {
			spec := Spec{Kind: kind, Algo: algo, Count: 40, Type: mem.Float32, Op: mem.Sum, Root: 1, Ranks: ranks, ChunkElems: 6}
			if kind == AllToAllv {
				spec.Count, spec.Counts = 0, counts
			}
			if spec.Validate() != nil {
				continue
			}
			ws := NewWirings(new(mem.Chunks), fabric.Unshared(c), "send")
			e := sim.NewEngine()
			sends, origs := make([]*mem.Buffer, len(ranks)), make([][]byte, len(ranks))
			for i := range ranks {
				sendCount, recvCount := BufferCountsFor(spec, i)
				sends[i] = mem.NewBuffer(spec.Type, sendCount)
				for j := 0; j < sendCount; j++ {
					sends[i].SetFloat64(j, float64(100*i+j))
				}
				origs[i] = bytes.Clone(sends[i].Bytes())
				x := ws.ExecutorFor(c, spec, i, sends[i], garbage(spec.Type, recvCount))
				e.Spawn("rank", func(p *sim.Process) {
					for x.StepOnce(p, -1) != Done {
					}
				})
			}
			if err := e.Run(); err != nil {
				t.Fatalf("%v %v: %v", kind, algo, err)
			}
			for i := range ranks {
				if !bytes.Equal(sends[i].Bytes(), origs[i]) {
					t.Fatalf("%v %v: position %d's send buffer was written", kind, algo, i)
				}
			}
			checked++
		}
	}
	if checked != 12 {
		t.Fatalf("checked %d kind × algorithm pairs, want 12", checked)
	}
}
