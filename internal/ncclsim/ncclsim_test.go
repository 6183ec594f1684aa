package ncclsim

import (
	"errors"
	"math/rand"
	"testing"

	"dfccl/internal/cudasim"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// allReduceOnce runs one all-reduce across n GPUs and returns the end time.
func allReduceOnce(t *testing.T, n, count int) sim.Time {
	t.Helper()
	e := sim.NewEngine()
	c := topo.Server3090(n)
	lib := New(e, c)
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	comm := lib.NewComm(ranks)
	for i := 0; i < n; i++ {
		rank := i
		e.Spawn("host", func(p *sim.Process) {
			s := mem.NewBuffer(mem.Float64, count)
			r := mem.NewBuffer(mem.Float64, count)
			s.Fill(float64(rank + 1))
			k := comm.Launch(p, lib.Device(rank).NewStream(), rank, prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float64, Op: mem.Sum}, s, r)
			k.Wait(p)
			want := float64(n*(n+1)) / 2
			if got := r.Float64At(count - 1); got != want {
				t.Errorf("rank %d result = %v, want %v", rank, got, want)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e.Now()
}

func TestAllReduceEndToEnd(t *testing.T) {
	allReduceOnce(t, 8, 4096)
}

func TestConsistentOrderTwoCollectivesNoDeadlock(t *testing.T) {
	// Fig. 1(a): both GPUs invoke B before A on a single stream: legal.
	e := sim.NewEngine()
	c := topo.Server3090(2)
	lib := New(e, c)
	commA, commB := lib.NewComm([]int{0, 1}), lib.NewComm([]int{0, 1})
	for rank := 0; rank < 2; rank++ {
		rank := rank
		e.Spawn("host", func(p *sim.Process) {
			st := lib.Device(rank).NewStream()
			bufs := func() (*mem.Buffer, *mem.Buffer) {
				return mem.NewBuffer(mem.Float32, 256), mem.NewBuffer(mem.Float32, 256)
			}
			s1, r1 := bufs()
			s2, r2 := bufs()
			kB := commB.Launch(p, st, rank, prim.Spec{Kind: prim.AllReduce, Count: 256, Type: mem.Float32, Op: mem.Sum}, s1, r1)
			kA := commA.Launch(p, st, rank, prim.Spec{Kind: prim.AllReduce, Count: 256, Type: mem.Float32, Op: mem.Sum}, s2, r2)
			kB.Wait(p)
			kA.Wait(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("consistent order deadlocked: %v", err)
	}
}

func TestDisorderSingleQueueDeadlocks(t *testing.T) {
	// Fig. 1(c): GPU 0 invokes A then B; GPU 1 invokes B then A, all on
	// one stream per GPU. NCCL deadlocks.
	e := sim.NewEngine()
	e.MaxTime = sim.Time(5 * sim.Second)
	c := topo.Server3090(2)
	lib := New(e, c)
	commA, commB := lib.NewComm([]int{0, 1}), lib.NewComm([]int{0, 1})
	launch := func(p *sim.Process, comm *Comm, st *cudasim.Stream, rank int) *cudasim.KernelInstance {
		s := mem.NewBuffer(mem.Float32, 1024)
		r := mem.NewBuffer(mem.Float32, 1024)
		return comm.Launch(p, st, rank, prim.Spec{Kind: prim.AllReduce, Count: 1024, Type: mem.Float32, Op: mem.Sum}, s, r)
	}
	e.Spawn("host0", func(p *sim.Process) {
		st := lib.Device(0).NewStream()
		launch(p, commA, st, 0)
		launch(p, commB, st, 0)
	})
	e.Spawn("host1", func(p *sim.Process) {
		st := lib.Device(1).NewStream()
		launch(p, commB, st, 1)
		launch(p, commA, st, 1)
	})
	if err := e.Run(); !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestDisorderMultiStreamSufficientResourcesOK(t *testing.T) {
	// Fig. 1(b): disorder with separate streams and enough block slots:
	// CUDA schedules both kernels, collectives complete.
	e := sim.NewEngine()
	c := topo.Server3090(2)
	lib := New(e, c)
	commA, commB := lib.NewComm([]int{0, 1}), lib.NewComm([]int{0, 1})
	launch := func(p *sim.Process, comm *Comm, st *cudasim.Stream, rank int) *cudasim.KernelInstance {
		s := mem.NewBuffer(mem.Float32, 1024)
		r := mem.NewBuffer(mem.Float32, 1024)
		return comm.Launch(p, st, rank, prim.Spec{Kind: prim.AllReduce, Count: 1024, Type: mem.Float32, Op: mem.Sum}, s, r)
	}
	e.Spawn("host0", func(p *sim.Process) {
		d := lib.Device(0)
		k1 := launch(p, commA, d.NewStream(), 0)
		k2 := launch(p, commB, d.NewStream(), 0)
		k1.Wait(p)
		k2.Wait(p)
	})
	e.Spawn("host1", func(p *sim.Process) {
		d := lib.Device(1)
		k1 := launch(p, commB, d.NewStream(), 1)
		k2 := launch(p, commA, d.NewStream(), 1)
		k1.Wait(p)
		k2.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("disorder with sufficient resources deadlocked: %v", err)
	}
}

func TestDisorderMultiStreamResourceDepletionDeadlocks(t *testing.T) {
	// Fig. 1(c) resource-depletion variant: separate streams but only
	// enough slots for one collective kernel per GPU.
	e := sim.NewEngine()
	c := topo.Server3090(2)
	lib := New(e, c)
	for _, d := range lib.Devs {
		d.MaxResidentBlocks = DefaultChannels // room for exactly one kernel
	}
	commA, commB := lib.NewComm([]int{0, 1}), lib.NewComm([]int{0, 1})
	launch := func(p *sim.Process, comm *Comm, st *cudasim.Stream, rank int) {
		s := mem.NewBuffer(mem.Float32, 1024)
		r := mem.NewBuffer(mem.Float32, 1024)
		comm.Launch(p, st, rank, prim.Spec{Kind: prim.AllReduce, Count: 1024, Type: mem.Float32, Op: mem.Sum}, s, r)
	}
	e.Spawn("host0", func(p *sim.Process) {
		d := lib.Device(0)
		launch(p, commA, d.NewStream(), 0)
		launch(p, commB, d.NewStream(), 0)
	})
	e.Spawn("host1", func(p *sim.Process) {
		d := lib.Device(1)
		launch(p, commB, d.NewStream(), 1)
		launch(p, commA, d.NewStream(), 1)
	})
	if err := e.Run(); !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestDisorderWithSyncDeadlocksDespiteResources(t *testing.T) {
	// Fig. 1(d): disorder + DeviceSynchronize between the two launches
	// deadlocks even with ample resources.
	e := sim.NewEngine()
	c := topo.Server3090(2)
	lib := New(e, c)
	commA, commB := lib.NewComm([]int{0, 1}), lib.NewComm([]int{0, 1})
	launch := func(p *sim.Process, comm *Comm, st *cudasim.Stream, rank int) {
		s := mem.NewBuffer(mem.Float32, 1024)
		r := mem.NewBuffer(mem.Float32, 1024)
		comm.Launch(p, st, rank, prim.Spec{Kind: prim.AllReduce, Count: 1024, Type: mem.Float32, Op: mem.Sum}, s, r)
	}
	e.Spawn("host0", func(p *sim.Process) {
		d := lib.Device(0)
		launch(p, commA, d.NewStream(), 0)
		d.Synchronize(p)
		launch(p, commB, d.NewStream(), 0)
	})
	e.Spawn("host1", func(p *sim.Process) {
		d := lib.Device(1)
		launch(p, commB, d.NewStream(), 1)
		d.Synchronize(p)
		launch(p, commA, d.NewStream(), 1)
	})
	if err := e.Run(); !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestEightGPURandomOrderSingleStreamDeadlocks(t *testing.T) {
	// The paper's Sec. 6.1 testing program run against NCCL: eight
	// GPUs, eight all-reduces, unique random order per GPU, single
	// stream per GPU. Deadlock ratio is 100% in the paper; with eight
	// distinct random permutations a cycle is (overwhelmingly) present.
	rng := rand.New(rand.NewSource(7))
	e := sim.NewEngine()
	c := topo.Server3090(8)
	lib := New(e, c)
	const nColl = 8
	comms := make([]*Comm, nColl)
	ranks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i := range comms {
		comms[i] = lib.NewComm(ranks)
	}
	for rank := 0; rank < 8; rank++ {
		order := rng.Perm(nColl)
		rank := rank
		e.Spawn("host", func(p *sim.Process) {
			st := lib.Device(rank).NewStream()
			for _, ci := range order {
				count := 64 << ci // 256B..32KB of float32
				s := mem.NewBuffer(mem.Float32, count)
				r := mem.NewBuffer(mem.Float32, count)
				comms[ci].Launch(p, st, rank, prim.Spec{Kind: prim.AllReduce, Count: count, Type: mem.Float32, Op: mem.Sum}, s, r)
			}
		})
	}
	if err := e.Run(); !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestBandwidthIncreasesWithBufferSize(t *testing.T) {
	t1 := allReduceOnce(t, 8, 1024)  // 8 KB
	t2 := allReduceOnce(t, 8, 1<<20) // 8 MB
	bw1 := float64(1024*8) / float64(t1)
	bw2 := float64(8<<20) / float64(t2)
	if bw2 <= bw1*2 {
		t.Fatalf("bandwidth did not scale: small=%.3f large=%.3f bytes/ns", bw1, bw2)
	}
}

func TestMPIComparison(t *testing.T) {
	// NCCL should beat host-staged MPI for large buffers (Sec. 2.1).
	const count = 1 << 20                    // 4 MB float32
	ncclTime := allReduceOnce(t, 8, count/2) // float64 path above uses 8-byte elems; match bytes
	e := sim.NewEngine()
	c := topo.Server3090(8)
	ranks := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sendBufs := make([]*mem.Buffer, 8)
	recvBufs := make([]*mem.Buffer, 8)
	for i := range sendBufs {
		sendBufs[i] = mem.NewBuffer(mem.Float32, count)
		recvBufs[i] = mem.NewBuffer(mem.Float32, count)
		sendBufs[i].Fill(1)
	}
	mpiTime, err := MPIAllReduce(e, c, ranks, count, mem.Float32, mem.Sum, sendBufs, recvBufs)
	if err != nil {
		t.Fatalf("MPI run: %v", err)
	}
	if got := recvBufs[3].Float64At(0); got != 8 {
		t.Fatalf("MPI all-reduce result = %v, want 8", got)
	}
	if mpiTime <= ncclTime {
		t.Fatalf("MPI (%v) should be slower than NCCL (%v) at 4MB", mpiTime, ncclTime)
	}
}
