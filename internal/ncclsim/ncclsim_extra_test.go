package ncclsim

import (
	"testing"

	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

func TestAllFiveCollectivesThroughNCCL(t *testing.T) {
	const n = 4
	e := sim.NewEngine()
	c := topo.Server3090(n)
	lib := New(e, c)
	ranks := []int{0, 1, 2, 3}
	comms := make([]*Comm, 5)
	for i := range comms {
		comms[i] = lib.NewComm(ranks)
	}
	results := make([]map[string]*mem.Buffer, n)
	for rank := 0; rank < n; rank++ {
		rank := rank
		results[rank] = make(map[string]*mem.Buffer)
		e.Spawn("host", func(p *sim.Process) {
			d := lib.Device(rank)
			mk := func(sc, rc int, fill float64) (*mem.Buffer, *mem.Buffer) {
				s := mem.NewBuffer(mem.Float64, sc)
				r := mem.NewBuffer(mem.Float64, rc)
				s.Fill(fill)
				return s, r
			}
			s1, r1 := mk(32, 32, float64(rank+1))
			k1 := comms[0].Launch(p, d.NewStream(), rank, prim.Spec{Kind: prim.AllReduce, Count: 32, Type: mem.Float64, Op: mem.Sum}, s1, r1)
			s2, r2 := mk(8, 8*n, float64(rank))
			k2 := comms[1].Launch(p, d.NewStream(), rank, prim.Spec{Kind: prim.AllGather, Count: 8, Type: mem.Float64}, s2, r2)
			s3, r3 := mk(8*n, 8, 2)
			k3 := comms[2].Launch(p, d.NewStream(), rank, prim.Spec{Kind: prim.ReduceScatter, Count: 8 * n, Type: mem.Float64, Op: mem.Sum}, s3, r3)
			s4, r4 := mk(16, 16, float64(100+rank))
			k4 := comms[3].Launch(p, d.NewStream(), rank, prim.Spec{Kind: prim.Broadcast, Count: 16, Type: mem.Float64, Root: 1}, s4, r4)
			s5, r5 := mk(16, 16, 3)
			k5 := comms[4].Launch(p, d.NewStream(), rank, prim.Spec{Kind: prim.Reduce, Count: 16, Type: mem.Float64, Op: mem.Sum, Root: 2}, s5, r5)
			for _, k := range []*cKernel{{k1}, {k2}, {k3}, {k4}, {k5}} {
				k.i.Wait(p)
			}
			results[rank]["ar"] = r1
			results[rank]["ag"] = r2
			results[rank]["rs"] = r3
			results[rank]["bc"] = r4
			results[rank]["rd"] = r5
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for rank := 0; rank < n; rank++ {
		if got := results[rank]["ar"].Float64At(0); got != 10 {
			t.Fatalf("all-reduce rank %d = %v, want 10", rank, got)
		}
		for seg := 0; seg < n; seg++ {
			if got := results[rank]["ag"].Float64At(seg * 8); got != float64(seg) {
				t.Fatalf("all-gather rank %d seg %d = %v", rank, seg, got)
			}
		}
		if got := results[rank]["rs"].Float64At(0); got != float64(2*n) {
			t.Fatalf("reduce-scatter rank %d = %v, want %v", rank, got, float64(2*n))
		}
		if got := results[rank]["bc"].Float64At(0); got != 101 {
			t.Fatalf("broadcast rank %d = %v, want 101", rank, got)
		}
	}
	if got := results[2]["rd"].Float64At(0); got != float64(3*n) {
		t.Fatalf("reduce root = %v, want %v", got, float64(3*n))
	}
}

// wrapper to range over heterogeneous kernel handles above.
type cKernel struct {
	i interface{ Wait(*sim.Process) }
}

func TestLatencyScalesWithRingSize(t *testing.T) {
	lat := func(n int) sim.Time {
		e := sim.NewEngine()
		c := topo.Server3090(n)
		lib := New(e, c)
		ranks := make([]int, n)
		for i := range ranks {
			ranks[i] = i
		}
		comm := lib.NewComm(ranks)
		for rank := 0; rank < n; rank++ {
			rank := rank
			e.Spawn("h", func(p *sim.Process) {
				s := mem.NewBuffer(mem.Float32, 64)
				r := mem.NewBuffer(mem.Float32, 64)
				comm.Launch(p, lib.Device(rank).NewStream(), rank, prim.Spec{Kind: prim.AllReduce, Count: 64, Type: mem.Float32, Op: mem.Sum}, s, r).Wait(p)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	if l2, l8 := lat(2), lat(8); l8 <= l2 {
		t.Fatalf("8-GPU latency %v not above 2-GPU %v (ring steps scale with N)", l8, l2)
	}
}

func TestRDMAPathSlowerThanSHM(t *testing.T) {
	lat := func(cluster *topo.Cluster, ranks []int) sim.Time {
		e := sim.NewEngine()
		lib := New(e, cluster)
		comm := lib.NewComm(ranks)
		for _, rank := range ranks {
			rank := rank
			e.Spawn("h", func(p *sim.Process) {
				s := mem.NewBuffer(mem.Float32, 1<<18)
				r := mem.NewBuffer(mem.Float32, 1<<18)
				comm.Launch(p, lib.Device(rank).NewStream(), rank, prim.Spec{Kind: prim.AllReduce, Count: 1 << 18, Type: mem.Float32, Op: mem.Sum}, s, r).Wait(p)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	intra := lat(topo.Server3090(8), []int{0, 1, 2, 3})
	inter := lat(topo.MultiNode3090(2), []int{0, 1, 8, 9}) // crosses machines
	if inter <= intra {
		t.Fatalf("cross-machine all-reduce %v not slower than intra-node %v", inter, intra)
	}
}

// TestCommHierarchicalAllToAllv drives the hierarchical algorithm
// through the NCCL-style surface on a two-node cluster: the comm lazily
// builds the hierarchical fabric and the dedicated kernels deliver the
// exact ragged layout.
func TestCommHierarchicalAllToAllv(t *testing.T) {
	counts := [][]int{
		{2, 9, 0, 4},
		{5, 1, 7, 0},
		{0, 3, 2, 8},
		{6, 0, 1, 2},
	}
	const n = 4
	e := sim.NewEngine()
	c := topo.NewCluster(2, 2, topo.RTX3090, topo.DefaultLinks)
	lib := New(e, c)
	comm := lib.NewComm([]int{0, 1, 2, 3})
	recvs := make([]*mem.Buffer, n)
	rowSum := func(i int) int {
		s := 0
		for _, v := range counts[i] {
			s += v
		}
		return s
	}
	colSum := func(j int) int {
		s := 0
		for _, row := range counts {
			s += row[j]
		}
		return s
	}
	for rank := 0; rank < n; rank++ {
		rank := rank
		e.Spawn("host", func(p *sim.Process) {
			send := mem.NewBuffer(mem.Float64, rowSum(rank))
			recvs[rank] = mem.NewBuffer(mem.Float64, colSum(rank))
			off := 0
			for dst := 0; dst < n; dst++ {
				for i := 0; i < counts[rank][dst]; i++ {
					send.SetFloat64(off, float64(100*rank+10*dst+i))
					off++
				}
			}
			k := comm.Launch(p, lib.Device(rank).NewStream(), rank, prim.Spec{Kind: prim.AllToAllv, Type: mem.Float64, Counts: counts, Algo: prim.AlgoHierarchical}, send, recvs[rank])
			k.Wait(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < n; pos++ {
		off := 0
		for src := 0; src < n; src++ {
			for i := 0; i < counts[src][pos]; i++ {
				want := float64(100*src + 10*pos + i)
				if got := recvs[pos].Float64At(off); got != want {
					t.Fatalf("pos %d block from %d elem %d = %v, want %v", pos, src, i, got, want)
				}
				off++
			}
		}
	}
}

// TestBackToBackLaunchesOfTwoShapes: two all-reduces of different counts
// launched back to back on one Comm, every rank enqueuing the second
// before the first has run, give exact bytes. The second's plan replaces
// the first's in the communicator's wiring while the first launch's
// kernels still read the first.
func TestBackToBackLaunchesOfTwoShapes(t *testing.T) {
	const n = 4
	e := sim.NewEngine()
	lib := New(e, topo.Server3090(n))
	comm := lib.NewComm([]int{0, 1, 2, 3})
	counts := []int{24, 40}
	recvs := make([][]*mem.Buffer, n)
	for rank := 0; rank < n; rank++ {
		e.Spawn("host", func(p *sim.Process) {
			stream := lib.Device(rank).NewStream()
			var kernels []interface{ Wait(*sim.Process) }
			for _, count := range counts {
				s, r := mem.NewBuffer(mem.Float64, count), mem.NewBuffer(mem.Float64, count)
				for i := range count {
					s.SetFloat64(i, float64(1000*rank+i))
				}
				recvs[rank] = append(recvs[rank], r)
				spec := prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float64, Op: mem.Sum, ChunkElems: 4}
				kernels = append(kernels, comm.Launch(p, stream, rank, spec, s, r))
			}
			for _, k := range kernels {
				k.Wait(p)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for rank, rs := range recvs {
		for c, r := range rs {
			for i := range counts[c] {
				if got, want := r.Float64At(i), float64(1000*(0+1+2+3)+n*i); got != want {
					t.Fatalf("rank %d launch %d elem %d = %v, want %v", rank, c, i, got, want)
				}
			}
		}
	}
}
