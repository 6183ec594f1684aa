package prim

import (
	"testing"
	"testing/quick"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// runWithPreemption drives all ranks with a small spin budget and a
// naive round-robin "daemon": each rank's executor is stepped until
// stuck, then the process sleeps briefly before retrying — a minimal
// model of preemptive scheduling, exercising save/restore on every
// collective kind.
func runWithPreemption(t *testing.T, spec Spec, fill func(rank int, b *mem.Buffer)) []*mem.Buffer {
	t.Helper()
	c := topo.Server3090(8)
	e := sim.NewEngine()
	e.MaxTime = sim.Time(10 * sim.Second)
	ring := BuildRingOn(fabric.Unshared(c), spec, "pre")
	n := spec.N()
	recvs := make([]*mem.Buffer, n)
	for i := 0; i < n; i++ {
		sendCount, recvCount := BufferCountsFor(spec, i)
		s := mem.NewBuffer(spec.Type, sendCount)
		recvs[i] = mem.NewBuffer(spec.Type, recvCount)
		fill(spec.Ranks[i], s)
		x := ring.ExecutorFor(c, spec, i, s, recvs[i])
		jitter := sim.Duration(7*(i+1)) * sim.Microsecond
		e.Spawn("rank", func(p *sim.Process) {
			for {
				switch x.StepOnce(p, 3*sim.Microsecond) {
				case Done:
					return
				case Stuck:
					p.Sleep(jitter) // preempted; resume later
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("%v with preemption: %v", spec.Kind, err)
	}
	return recvs
}

func TestBroadcastWithPreemption(t *testing.T) {
	spec := Spec{Kind: Broadcast, Count: 300, Type: mem.Float64, Root: 2, Ranks: []int{0, 1, 2, 3, 4}, ChunkElems: 16}
	recvs := runWithPreemption(t, spec, func(rank int, b *mem.Buffer) { b.Fill(float64(10 + rank)) })
	for i, r := range recvs {
		if got := r.Float64At(299); got != 12 {
			t.Fatalf("pos %d = %v, want 12 (root's value)", i, got)
		}
	}
}

func TestReduceScatterWithPreemption(t *testing.T) {
	spec := Spec{Kind: ReduceScatter, Count: 64, Type: mem.Float64, Op: mem.Sum, Ranks: []int{0, 1, 2, 3}, ChunkElems: 4}
	recvs := runWithPreemption(t, spec, func(rank int, b *mem.Buffer) {
		for i := 0; i < b.Len(); i++ {
			b.SetFloat64(i, float64(i))
		}
	})
	for pos, r := range recvs {
		for i := 0; i < 16; i++ {
			want := 4 * float64(pos*16+i)
			if got := r.Float64At(i); got != want {
				t.Fatalf("pos %d elem %d = %v, want %v", pos, i, got, want)
			}
		}
	}
}

func TestReduceWithPreemption(t *testing.T) {
	spec := Spec{Kind: Reduce, Count: 128, Type: mem.Float64, Op: mem.Max, Root: 3, Ranks: []int{0, 1, 2, 3, 4, 5}, ChunkElems: 32}
	recvs := runWithPreemption(t, spec, func(rank int, b *mem.Buffer) { b.Fill(float64(rank * rank)) })
	if got := recvs[3].Float64At(0); got != 25 {
		t.Fatalf("root reduce max = %v, want 25", got)
	}
}

func TestAllGatherWithPreemption(t *testing.T) {
	spec := Spec{Kind: AllGather, Count: 40, Type: mem.Int64, Ranks: []int{0, 1, 2, 3, 4, 5, 6, 7}, ChunkElems: 8}
	recvs := runWithPreemption(t, spec, func(rank int, b *mem.Buffer) { b.Fill(float64(rank * 100)) })
	for pos, r := range recvs {
		for seg := 0; seg < 8; seg++ {
			if got := r.Float64At(seg*40 + 39); got != float64(seg*100) {
				t.Fatalf("pos %d seg %d = %v, want %v", pos, seg, got, float64(seg*100))
			}
		}
	}
}

// Property: for any chunk size, ring all-gather reconstructs every
// rank's contribution on every rank.
func TestAllGatherProperty(t *testing.T) {
	f := func(nRaw, chunkRaw, perRaw uint8) bool {
		n := int(nRaw)%7 + 2
		chunk := int(chunkRaw)%19 + 1
		per := int(perRaw)%50 + 1
		c := topo.Server3090(8)
		ranks := make([]int, n)
		for i := range ranks {
			ranks[i] = i
		}
		spec := Spec{Kind: AllGather, Count: per, Type: mem.Float64, Ranks: ranks, ChunkElems: chunk}
		e := sim.NewEngine()
		ring := BuildRingOn(fabric.Unshared(c), spec, "q")
		recvs := make([]*mem.Buffer, n)
		for i := 0; i < n; i++ {
			s := mem.NewBuffer(mem.Float64, per)
			recvs[i] = mem.NewBuffer(mem.Float64, per*n)
			for j := 0; j < per; j++ {
				s.SetFloat64(j, float64(i*1000+j))
			}
			x := ring.ExecutorFor(c, spec, i, s, recvs[i])
			e.Spawn("r", func(p *sim.Process) {
				for x.StepOnce(p, -1) != Done {
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for seg := 0; seg < n; seg++ {
				for j := 0; j < per; j++ {
					if recvs[i].Float64At(seg*per+j) != float64(seg*1000+j) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: timing-only and data-carrying executions of the same spec
// finish at the same virtual time.
func TestTimingOnlyScheduleEquivalence(t *testing.T) {
	f := func(nRaw, chunkRaw uint8, countRaw uint16) bool {
		n := int(nRaw)%7 + 2
		chunk := int(chunkRaw)%63 + 1
		count := int(countRaw)%2000 + n
		run := func(timingOnly bool) (sim.Time, bool) {
			c := topo.Server3090(8)
			ranks := make([]int, n)
			for i := range ranks {
				ranks[i] = i
			}
			spec := Spec{Kind: AllReduce, Count: count, Type: mem.Float32, Op: mem.Sum,
				Ranks: ranks, ChunkElems: chunk, TimingOnly: timingOnly}
			e := sim.NewEngine()
			ring := BuildRingOn(fabric.Unshared(c), spec, "q")
			for i := 0; i < n; i++ {
				bufCount := count
				if timingOnly {
					bufCount = 0
				}
				s := mem.NewBuffer(mem.Float32, bufCount)
				d := mem.NewBuffer(mem.Float32, bufCount)
				x := ring.ExecutorFor(c, spec, i, s, d)
				e.Spawn("r", func(p *sim.Process) {
					for x.StepOnce(p, -1) != Done {
					}
				})
			}
			if err := e.Run(); err != nil {
				return 0, false
			}
			return e.Now(), true
		}
		realT, ok1 := run(false)
		modelT, ok2 := run(true)
		return ok1 && ok2 && realT == modelT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorResetReusesConnectors runs the same executor pair through
// several invocations with fresh buffers — the register-once /
// run-repeatedly lifecycle.
func TestExecutorResetReusesConnectors(t *testing.T) {
	c := topo.Server3090(2)
	const count = 100
	spec := Spec{Kind: AllReduce, Count: count, Type: mem.Float64, Op: mem.Sum, Ranks: []int{0, 1}, ChunkElems: 16}
	ring := BuildRingOn(fabric.Unshared(c), spec, "t")
	execs := make([]*Executor, 2)
	for i := range execs {
		execs[i] = ring.ExecutorFor(c, spec, i, nil, nil)
	}
	for it := 0; it < 5; it++ {
		e := sim.NewEngine()
		results := make([]*mem.Buffer, 2)
		for i := 0; i < 2; i++ {
			s := mem.NewBuffer(mem.Float64, count)
			d := mem.NewBuffer(mem.Float64, count)
			s.Fill(float64(it + i))
			results[i] = d
			x := execs[i]
			x.Reset(s, d)
			e.Spawn("r", func(p *sim.Process) {
				for x.StepOnce(p, -1) != Done {
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		want := float64(it + it + 1)
		for i := 0; i < 2; i++ {
			if got := results[i].Float64At(0); got != want {
				t.Fatalf("iteration %d rank %d = %v, want %v", it, i, got, want)
			}
		}
	}
}
