package prim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
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
					ws := NewWirings(new(mem.Chunks), nil, new(Plans), fabric.Unshared(c), "rs")
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
	ws := NewWirings(new(mem.Chunks), nil, new(Plans), fabric.Unshared(c), "rs")
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

// TestAllToAllNeedsOnlyTransit: the flat all-to-all and all-to-all-v read
// their own blocks from the send buffer and receive their final blocks
// into the recv buffer, so an executor's scratch is exactly its two
// transit slots, each as long as the longest block that passes through
// its place on the way to another (block i→j passes the places strictly
// between i and j along the ring). For n = 1…16 ranks in seeded orders,
// uniform counts (zero among them) and ragged ones with a zero row and a
// zero column, each rank on a 1 µs spin budget, switched out for 1–3 µs
// when it sticks, and every third one slow (its predecessor runs ahead,
// so chunks lent out of a transit slot are still unread when the slot
// is received into again), a run leaves every send buffer byte-identical
// and the closed form in every recv buffer, and ends at the virtual time
// the blocking reference ends at.
func TestAllToAllNeedsOnlyTransit(t *testing.T) {
	c := topo.NewCluster(4, 4, topo.RTX3090, topo.DefaultLinks)
	rng := rand.New(rand.NewSource(49))
	for n := 1; n <= 16; n++ {
		counts := make([][]int, n)
		for i := range counts {
			counts[i] = make([]int, n)
			for j := range counts[i] {
				if i != n/2 && j != n/3 {
					counts[i][j] = rng.Intn(50)
				}
			}
		}
		for _, spec := range []Spec{{Kind: AllToAll, Count: n % 5 * 3}, {Kind: AllToAllv, Counts: counts}} {
			spec.Type, spec.Ranks, spec.ChunkElems = mem.Float32, rng.Perm(16)[:n], 1+rng.Intn(16)
			name := fmt.Sprintf("%v n=%d chunk=%d", spec.Kind, n, spec.ChunkElems)
			var end [2]sim.Time
			for k, blocking := range []bool{false, true} {
				ws := NewWirings(new(mem.Chunks), nil, new(Plans), fabric.Unshared(c), "a2a")
				e := sim.NewEngine()
				execs := make([]*Executor, n)
				sends, recvs, origs := make([]*mem.Buffer, n), make([]*mem.Buffer, n), make([][]byte, n)
				for pos := range execs {
					sendCount, recvCount := BufferCountsFor(spec, pos)
					sends[pos], recvs[pos] = mem.NewBuffer(spec.Type, sendCount), garbage(spec.Type, recvCount)
					for i := range sendCount {
						sends[pos].SetFloat64(i, float64(1000*pos+i))
					}
					origs[pos] = bytes.Clone(sends[pos].Bytes())
					x := ws.ExecutorFor(c, spec, pos, sends[pos], recvs[pos])
					step := (*Executor).StepOnce
					if blocking {
						step = (*Executor).blockingStepOnce
					}
					e.Spawn("rank", func(p *sim.Process) {
						for {
							switch step(x, p, sim.Microsecond) {
							case Done:
								return
							case Stuck:
								p.Sleep(sim.Duration(1+pos%3) * sim.Microsecond)
							case Progressed:
								if pos%3 == 1 {
									p.Sleep(2 * sim.Microsecond) // a slow rank
								}
							}
						}
					})
					execs[pos] = x
				}
				if err := e.Run(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				end[k] = e.Now()
				for pos, x := range execs {
					transit := 0
					for i := range n {
						for j := range n {
							if h := mod(pos-i, n); h > 0 && h < mod(j-i, n) {
								transit = max(transit, spec.count(i, j))
							}
						}
					}
					got := 0
					if x.scratch != nil {
						got = x.scratch.Len()
					}
					switch {
					case got != 2*transit:
						t.Fatalf("%s: position %d has a %d-element scratch, want two %d-element transit slots", name, pos, got, transit)
					case !bytes.Equal(sends[pos].Bytes(), origs[pos]):
						t.Fatalf("%s: position %d's send buffer was written", name, pos)
					case !bytes.Equal(recvs[pos].Bytes(), a2aWant(spec, sends, pos)):
						t.Fatalf("%s: position %d's recv buffer is not the closed form", name, pos)
					}
				}
			}
			if end[0] != end[1] {
				t.Fatalf("%s: the run ends at %v, the blocking reference at %v", name, end[0], end[1])
			}
		}
	}
}

// TestRunsLeaveSendBuffersAlone: every kind, on the ring and (where it
// has one) the hierarchical schedule, leaves every send buffer
// bit-identical, however long the run reads it. Both all-to-all kinds,
// which send their own blocks straight from the send buffer on both
// algorithms, also end with the closed form in recv.
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
			ws := NewWirings(new(mem.Chunks), nil, new(Plans), fabric.Unshared(c), "send")
			e := sim.NewEngine()
			sends, recvs, origs := make([]*mem.Buffer, len(ranks)), make([]*mem.Buffer, len(ranks)), make([][]byte, len(ranks))
			for i := range ranks {
				sendCount, recvCount := BufferCountsFor(spec, i)
				sends[i], recvs[i] = mem.NewBuffer(spec.Type, sendCount), garbage(spec.Type, recvCount)
				for j := 0; j < sendCount; j++ {
					sends[i].SetFloat64(j, float64(100*i+j))
				}
				origs[i] = bytes.Clone(sends[i].Bytes())
				x := ws.ExecutorFor(c, spec, i, sends[i], recvs[i])
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
				if !kind.InPlace() && !bytes.Equal(recvs[i].Bytes(), a2aWant(spec, sends, i)) {
					t.Fatalf("%v %v: position %d's recv buffer is not the closed form", kind, algo, i)
				}
			}
			checked++
		}
	}
	if checked != 12 {
		t.Fatalf("checked %d kind × algorithm pairs, want 12", checked)
	}
}

// TestNoKindWritesItsSendBuffer runs 300 valid specs drawn from
// FuzzSequences' space — every kind, ring and hierarchical, 1–3 nodes × 1–4 GPUs,
// seeded rank orders, counts, chunks, types, ops, roots and all-to-all-v
// matrices — with real data, each rank on a 1 µs spin budget that
// switches it out whenever a peer is slow. An FNV-64a hash of every send
// buffer is the same after the run as before, and an all-to-all(v),
// which reads its send buffer and writes its recv buffer in place, ends
// with the closed form in recv (a2aWant), on both algorithms. Where
// every position's send and recv buffers are the same size and the kind
// may run in place (Kind.InPlace), the spec runs again in place, each
// rank's send buffer also its recv buffer (the one case a run may write
// it), and every defined result is bit-identical to the first run's.
func TestNoKindWritesItsSendBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	hash := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	ran, inPlace := 0, 0
	a2a := map[Algorithm]int{}
	for tries := 0; ran < 300; tries++ {
		if tries == 3000 {
			t.Fatalf("%d of %d drawn specs are valid: the draw no longer covers the space", ran, tries)
		}
		kind, counts := Kind(rng.Intn(7)), int64(-1)
		if kind == AllToAllv {
			counts = rng.Int63n(32)
		}
		c, spec := fuzzSpec(int8(kind), int8(rng.Intn(3)), uint8(rng.Intn(3)), uint8(rng.Intn(4)), rng.Int63(),
			uint8(rng.Intn(12)), int16(rng.Intn(256)), int8(rng.Intn(40)), int8(rng.Intn(4)), int8(rng.Intn(4)),
			int8(rng.Intn(3)), counts)
		if spec.Validate() != nil {
			continue
		}
		n := spec.N()
		sends, recvs, sums := make([]*mem.Buffer, n), make([]*mem.Buffer, n), make([]uint64, n)
		square := true
		for i := range sends {
			sendCount, recvCount := BufferCountsFor(spec, i)
			sends[i] = mem.NewBuffer(spec.Type, sendCount)
			for j := range sendCount {
				sends[i].SetFloat64(j, float64(rng.Intn(7)-3))
			}
			sums[i], recvs[i] = hash(sends[i].Bytes()), garbage(spec.Type, recvCount)
			square = square && sendCount == recvCount
		}
		runSwitched(t, c, spec, sends, recvs)
		for i, b := range sends {
			if hash(b.Bytes()) != sums[i] {
				t.Fatalf("%+v: position %d's send buffer was written", spec, i)
			}
			if !spec.Kind.InPlace() && !bytes.Equal(recvs[i].Bytes(), a2aWant(spec, sends, i)) {
				t.Fatalf("%+v: position %d's recv buffer is not the closed form", spec, i)
			}
		}
		ran++
		if !spec.Kind.InPlace() {
			a2a[spec.Algo]++
			continue
		}
		if !square {
			continue
		}
		same := make([]*mem.Buffer, n)
		for i, b := range sends {
			same[i] = b.Clone()
		}
		runSwitched(t, c, spec, same, same)
		for i := range same {
			if (spec.Kind != Reduce || i == spec.Root) && !bytes.Equal(same[i].Bytes(), recvs[i].Bytes()) {
				t.Fatalf("%+v: position %d in place differs from the run with two buffers", spec, i)
			}
		}
		inPlace++
	}
	if inPlace < 100 || a2a[AlgoRing] < 20 || a2a[AlgoHierarchical] < 20 {
		t.Fatalf("%d of %d specs ran in place, %d all-to-alls on the ring and %d hierarchical: the draw no longer covers the space",
			inPlace, ran, a2a[AlgoRing], a2a[AlgoHierarchical])
	}
}

// a2aWant is the closed form of position pos's all-to-all(v) output:
// the block every origin o sends to pos, read from o's send buffer, in
// origin order.
func a2aWant(spec Spec, sends []*mem.Buffer, pos int) []byte {
	var want []byte
	for o, send := range sends {
		lo := 0
		for j := range pos {
			lo += spec.count(o, j)
		}
		want = append(want, send.Slice(lo, lo+spec.count(o, pos))...)
	}
	return want
}

// runSwitched runs spec over a fresh wiring with the given buffers, every
// rank stepping on a 1 µs spin budget and sleeping a few microseconds
// whenever it comes back Stuck.
func runSwitched(t *testing.T, c *topo.Cluster, spec Spec, sends, recvs []*mem.Buffer) {
	t.Helper()
	ws := NewWirings(new(mem.Chunks), nil, new(Plans), fabric.Unshared(c), "p")
	e := sim.NewEngine()
	for i := range sends {
		x := ws.ExecutorFor(c, spec, i, sends[i], recvs[i])
		e.Spawn("rank", func(p *sim.Process) {
			for {
				switch x.StepOnce(p, sim.Microsecond) {
				case Done:
					return
				case Stuck:
					p.Sleep(sim.Duration(1+i%3) * sim.Microsecond)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
}
