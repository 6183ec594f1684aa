package prim

import (
	"strings"
	"testing"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// sumPattern fills rank's send buffer with small integers (a different
// set per shift), so float32 sums over any number of ranks are exact,
// and returns the all-reduce sum expected at element i over n ranks.
func sumPattern(n, shift int) (fill func(rank int, b *mem.Buffer), want func(i int) float64) {
	val := func(rank, i int) float64 { return float64((rank*7+(i+shift)*3)%17 + 1) }
	fill = func(rank int, b *mem.Buffer) {
		for i := 0; i < b.Len(); i++ {
			b.SetFloat64(i, val(rank, i))
		}
	}
	want = func(i int) float64 {
		var s float64
		for r := 0; r < n; r++ {
			s += val(r, i)
		}
		return s
	}
	return fill, want
}

// TestBackedUpRingsStayExact drives an 8-rank data-carrying all-reduce
// the way the daemon does — StepOnce with a spin budget, and a rank that
// comes back Stuck is switched out for a while — with reducers slower
// than the wire. A switched-out reader lets its ring back up to all
// ConnectorSlots; once it is back, its writer refills each slot it
// frees while the reader is still inside recvHalf's compute sleep, and
// with pooled chunk memory that refill lands in the very buffer the
// reader was just handed. The sums are only exact if the reader has
// reduced the chunk before it sleeps (mem.Connector.Read's lifetime
// contract): reduce after the sleep and this test fails.
func TestBackedUpRingsStayExact(t *testing.T) {
	spec := backedUpSpec
	ring := BuildRingOn(fabric.Unshared(topo.Server3090(spec.N())), spec, "t")
	if r := runBackedUp(t, spec, ring); r.deepest != ConnectorSlots {
		t.Fatalf("rings backed up to %d of %d slots: the schedule no longer exercises the case", r.deepest, ConnectorSlots)
	}
}

// TestBackedUpRingsShareOnePool is TestBackedUpRingsStayExact with two
// such all-reduces on two communicators' wirings over one staging pool,
// as every communicator of a System shares one. Each rank starts the
// second as soon as its part of the first is done, while slower ranks
// are still reading and reducing the first's chunks, so a buffer one
// ring's reader frees may be restaged by a writer on the other ring
// during the reader's compute sleep. Both sums stay exact, and the pool
// made fewer buffers than the two rings ever held at once between them,
// which is only possible if some buffer carried chunks of both.
func TestBackedUpRingsShareOnePool(t *testing.T) {
	spec := backedUpSpec
	net := fabric.Unshared(topo.Server3090(spec.N()))
	chunks := new(mem.Chunks)
	a := NewWirings(chunks, net, "a").wiringFor(spec)
	b := NewWirings(chunks, net, "b").wiringFor(spec)
	r := runBackedUp(t, spec, a, b)
	if r.deepest != ConnectorSlots || !r.overlapped {
		t.Fatalf("rings backed up to %d of %d slots, collectives overlapped %t: the schedule no longer exercises the case", r.deepest, ConnectorSlots, r.overlapped)
	}
	// A ring's chunks all come from the pool, so it made at least the
	// most either ring held.
	if m := chunks.Made(); m < max(r.held[0], r.held[1]) || m >= r.held[0]+r.held[1] {
		t.Fatalf("the pool made %d buffers for rings that held %v at most: the rings do not share it, or no chunk was restaged across them", m, r.held)
	}
}

// backedUpSpec is the all-reduce runBackedUp drives: 8 ranks, 48
// chunks of 64 elements per rank.
var backedUpSpec = Spec{Kind: AllReduce, Count: 8 * 64 * 6, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 1, 2, 3, 4, 5, 6, 7}, ChunkElems: 64}

// backedUp is what runBackedUp saw between steps: the deepest any
// connector backed up, the most chunks each ring held at once, and
// whether a rank started a collective while another was still in the
// one before.
type backedUp struct {
	deepest    int
	held       []int
	overlapped bool
}

// runBackedUp runs spec over the rings in order on every rank — a rank
// starts ring j+1 once its part of ring j is done, collective j on
// sumPattern's shift j — with reducers slower than the wire and the
// daemon's switch-out of a Stuck rank, and checks every sum exactly.
func runBackedUp(t *testing.T, spec Spec, rings ...*Wiring) backedUp {
	t.Helper()
	n, count := spec.N(), spec.Count
	c := topo.Server3090(n)
	e := sim.NewEngine()
	r := backedUp{held: make([]int, len(rings))}
	recvs := make([][]*mem.Buffer, len(rings))
	done := make([]int, len(rings)) // ranks done with each ring
	for i := 0; i < n; i++ {
		execs := make([]*Executor, len(rings))
		for j, ring := range rings {
			fill, _ := sumPattern(n, j)
			s := mem.NewBuffer(spec.Type, count)
			recvs[j] = append(recvs[j], mem.NewBuffer(spec.Type, count))
			fill(i, s)
			execs[j] = ring.ExecutorFor(c, spec, i, s, recvs[j][i])
			execs[j].ComputeBW = 1e9 // reducing a chunk takes longer than sending one
		}
		e.Spawn("rank", func(p *sim.Process) {
			for j, x := range execs {
				if j > 0 && done[j-1] < n {
					r.overlapped = true
				}
				for {
					res := x.StepOnce(p, 500*sim.Nanosecond)
					r.deepest = max(r.deepest, x.Outs[0].Pending())
					inFlight := 0
					rings[j].each(func(conn *mem.Connector) { inFlight += conn.Pending() })
					r.held[j] = max(r.held[j], inFlight)
					if res == Done {
						done[j]++
						break
					}
					if res == Stuck {
						p.Sleep(sim.Duration(20+15*i) * sim.Microsecond)
					}
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for j := range rings {
		_, want := sumPattern(n, j)
		for rank := 0; rank < n; rank++ {
			for i := 0; i < count; i++ {
				if got := recvs[j][rank].Float64At(i); got != want(i) {
					t.Fatalf("collective %d rank %d elem %d = %v, want %v", j, rank, i, got, want(i))
				}
			}
		}
	}
	return r
}

// TestPooledWiringServesLargerChunks reuses one communicator's wiring
// for collectives of different chunk sizes, as the communicator pool
// does across Close and Open: connectors that kept a small collective's
// buffer must carry a larger one's chunks whole, and the other way
// round must not leak the larger buffer's tail.
func TestPooledWiringServesLargerChunks(t *testing.T) {
	const n = 4
	c := topo.Server3090(n)
	ws := NewWirings(new(mem.Chunks), fabric.Unshared(c), "t")
	fill, want := sumPattern(n, 0)
	var first *Wiring
	for _, sz := range []struct{ count, chunk int }{{64, 4}, {4096, 512}, {100, 7}, {4096, 1024}} {
		spec := Spec{Kind: AllReduce, Count: sz.count, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 1, 2, 3}, ChunkElems: sz.chunk}
		e := sim.NewEngine()
		recvs := make([]*mem.Buffer, n)
		for i := 0; i < n; i++ {
			s := mem.NewBuffer(spec.Type, sz.count)
			recvs[i] = mem.NewBuffer(spec.Type, sz.count)
			fill(i, s)
			x := ws.ExecutorFor(c, spec, i, s, recvs[i])
			e.Spawn("rank", func(p *sim.Process) {
				for x.StepOnce(p, -1) != Done {
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("count %d chunk %d: %v", sz.count, sz.chunk, err)
		}
		for r := 0; r < n; r++ {
			for i := 0; i < sz.count; i++ {
				if got := recvs[r].Float64At(i); got != want(i) {
					t.Fatalf("count %d chunk %d: rank %d elem %d = %v, want %v", sz.count, sz.chunk, r, i, got, want(i))
				}
			}
		}
		if first == nil {
			first = ws.ring
		}
		if ws.ring != first {
			t.Fatal("the wiring was rebuilt: the test no longer reuses connectors")
		}
	}
}

// relaunch runs one collective over execs (every position, in order) with
// fresh send buffers of sendCount elements filled by fill and recv
// buffers BufferCountsFor sizes, and returns the recv buffers and the
// engine's error.
func relaunch(execs []*Executor, sendCount int, fill func(rank int, b *mem.Buffer)) ([]*mem.Buffer, error) {
	e := sim.NewEngine()
	recvs := make([]*mem.Buffer, len(execs))
	for i, x := range execs {
		s := mem.NewBuffer(x.Spec.Type, sendCount)
		fill(i, s)
		_, recvCount := BufferCountsFor(x.Spec, i)
		recvs[i] = mem.NewBuffer(x.Spec.Type, recvCount)
		x.Reset(s, recvs[i])
		e.Spawn("rank", func(p *sim.Process) {
			for x.StepOnce(p, -1) != Done {
			}
		})
	}
	return recvs, e.Run()
}

// TestScratchStartsAsTheInitCopy: a reduce's non-root works in a
// scratch the init copy overwrites whole, so it is not allocated ahead
// of the first run but made by that copy. The first and the relaunched
// runs (which copy into the scratch they then have) are both exact, and
// a send buffer of the wrong size is still refused on either.
func TestScratchStartsAsTheInitCopy(t *testing.T) {
	const n, count, root = 4, 200, 2
	c := topo.Server3090(n)
	spec := Spec{Kind: Reduce, Count: count, Type: mem.Float32, Op: mem.Sum, Root: root, Ranks: []int{0, 1, 2, 3}, ChunkElems: 16}
	ring := BuildRingOn(fabric.Unshared(c), spec, "t")
	execs := make([]*Executor, n)
	for i := range execs {
		execs[i] = ring.ExecutorFor(c, spec, i, nil, nil)
		if execs[i].Seq.useScratch != (i != root) || execs[i].scratch != nil {
			t.Fatalf("pos %d: scratch %t, allocated %t before the first run", i, execs[i].Seq.useScratch, execs[i].scratch != nil)
		}
	}
	run := func(shift, sendCount int) error {
		fill, want := sumPattern(n, shift)
		recvs, err := relaunch(execs, sendCount, fill)
		if err != nil {
			return err
		}
		for j := 0; j < count; j++ {
			if got, w := recvs[root].Float64At(j), want(j); got != w {
				t.Fatalf("shift %d: root elem %d = %v, want %v", shift, j, got, w)
			}
		}
		return nil
	}
	if err := run(0, count-1); err == nil || !strings.Contains(err.Error(), "init copy size mismatch") {
		t.Fatalf("short send buffer on the first run: %v, want an init copy size mismatch", err)
	}
	for shift := 0; shift < 3; shift++ {
		if err := run(shift, count); err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
	}
	for i, x := range execs {
		if x.Seq.useScratch && (x.scratch == nil || x.scratch.Len() != count) {
			t.Fatalf("pos %d: no %d-element scratch after three runs", i, count)
		}
	}
	if err := run(0, count+1); err == nil || !strings.Contains(err.Error(), "init copy size mismatch") {
		t.Fatalf("long send buffer on a relaunch: %v, want an init copy size mismatch", err)
	}
}

// TestReduceScatterRefusesMisSizedSend: the flat reduce-scatter, which
// reads each block's own contribution from the send buffer as it goes,
// still refuses a short send buffer on the first run and a long one on a
// relaunch by name, before any slice of it is read.
func TestReduceScatterRefusesMisSizedSend(t *testing.T) {
	const n, count = 4, 4 * 50
	c := topo.Server3090(n)
	spec := Spec{Kind: ReduceScatter, Count: count, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 1, 2, 3}, ChunkElems: 16}
	ring := BuildRingOn(fabric.Unshared(c), spec, "t")
	execs := make([]*Executor, n)
	for i := range execs {
		execs[i] = ring.ExecutorFor(c, spec, i, nil, nil)
	}
	fill, want := sumPattern(n, 1)
	if _, err := relaunch(execs, count-1, fill); err == nil || !strings.Contains(err.Error(), "init copy size mismatch") {
		t.Fatalf("short send buffer on the first run: %v, want an init copy size mismatch", err)
	}
	recvs, err := relaunch(execs, count, fill)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		for j := 0; j < count/n; j++ {
			if got, w := recvs[r].Float64At(j), want(r*count/n+j); got != w {
				t.Fatalf("rank %d elem %d = %v, want %v", r, j, got, w)
			}
		}
	}
	if _, err := relaunch(execs, count+1, fill); err == nil || !strings.Contains(err.Error(), "init copy size mismatch") {
		t.Fatalf("long send buffer on a relaunch: %v, want an init copy size mismatch", err)
	}
}
