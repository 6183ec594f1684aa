package cudasim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// TestMultipleBarriersLiftInOrder stacks two device synchronizations
// and checks both lift once their prefixes complete.
func TestMultipleBarriersLiftInOrder(t *testing.T) {
	e := sim.NewEngine()
	d := NewDevice(e, 0, topo.RTX3090)
	var sync1At, sync2At, k1Done, k2Done sim.Time
	e.Spawn("host", func(p *sim.Process) {
		d.Launch(p, d.NewStream(), &Kernel{Name: "k1", Grid: 1, Body: func(kc *KernelCtx) {
			kc.Sleep(50 * sim.Microsecond)
			k1Done = kc.Now()
		}})
		p.Spawn("sync1", func(sp *sim.Process) {
			d.Synchronize(sp)
			sync1At = sp.Now()
		})
		p.Sleep(1 * sim.Microsecond)
		d.Launch(p, d.NewStream(), &Kernel{Name: "k2", Grid: 1, Body: func(kc *KernelCtx) {
			kc.Sleep(30 * sim.Microsecond)
			k2Done = kc.Now()
		}})
		p.Spawn("sync2", func(sp *sim.Process) {
			d.Synchronize(sp)
			sync2At = sp.Now()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sync1At < k1Done {
		t.Fatalf("sync1 at %v before k1 done at %v", sync1At, k1Done)
	}
	if sync2At < k2Done || sync2At < k1Done {
		t.Fatalf("sync2 at %v before kernels done (%v, %v)", sync2At, k1Done, k2Done)
	}
	// k2 must not start until k1 completed (launched after sync1).
	if k2Done-sim.Time(30*sim.Microsecond) < k1Done {
		t.Fatalf("k2 started before the barrier lifted")
	}
}

// TestQueuedKernelsDispatchDeterministically fills the device beyond
// capacity and checks queued kernels run in stream-id order.
func TestQueuedKernelsDispatchDeterministically(t *testing.T) {
	run := func() []string {
		e := sim.NewEngine()
		d := NewDevice(e, 0, topo.RTX3090)
		d.MaxResidentBlocks = 2
		var order []string
		e.Spawn("host", func(p *sim.Process) {
			var last *KernelInstance
			for i := 0; i < 6; i++ {
				name := string(rune('a' + i))
				last = d.Launch(p, d.NewStream(), &Kernel{Name: name, Grid: 2, Body: func(kc *KernelCtx) {
					kc.Sleep(10 * sim.Microsecond)
					order = append(order, name)
				}})
			}
			last.Wait(p)
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return order
	}
	first := run()
	for i := 0; i < 3; i++ {
		again := run()
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("dispatch order nondeterministic: %v vs %v", again, first)
			}
		}
	}
	// With capacity for one kernel at a time, launch order holds.
	for i, name := range first {
		if name != string(rune('a'+i)) {
			t.Fatalf("order = %v, want launch order", first)
		}
	}
}

// Property: every launched kernel's body runs and completes, leaving the
// device idle, for any random mix of grid sizes that fits the device.
func TestAllLaunchedKernelsComplete(t *testing.T) {
	f := func(grids []uint8) bool {
		e := sim.NewEngine()
		d := NewDevice(e, 0, topo.RTX3090)
		n := len(grids)
		if n > 40 {
			n = 40
		}
		ran := 0
		e.Spawn("host", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				grid := int(grids[i])%16 + 1
				d.Launch(p, d.NewStream(), &Kernel{Name: "k", Grid: grid, Body: func(kc *KernelCtx) {
					kc.Sleep(sim.Duration(grid) * sim.Microsecond)
					ran++
				}})
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ran == n && d.residentBlocks == 0 && len(d.incomplete) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomSchedulesKeepDeviceRules drives random launch schedules over
// several streams, with grids up to the device's capacity and
// synchronizations from spawned host processes, and checks the device
// rules at every kernel start and every Synchronize return: resident
// blocks stay within capacity, a stream's kernels never overlap, a
// kernel launched behind an active synchronization point starts only
// once every kernel launched before that point has completed,
// Synchronize returns only then too, and every kernel completes.
func TestRandomSchedulesKeepDeviceRules(t *testing.T) {
	type launched struct {
		stream, grid   int
		behind         int // kernels launched before the latest sync point active at launch
		started, ended bool
	}
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		d := NewDevice(e, 0, topo.RTX3090)
		d.MaxResidentBlocks = 1 + rng.Intn(8)
		streams := make([]*Stream, 1+rng.Intn(4))
		for i := range streams {
			streams[i] = d.NewStream()
		}
		var ks []*launched
		var active []int // kernels launched before each waiting Synchronize
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
		}
		allEndedBefore := func(n int) bool {
			for _, k := range ks[:n] {
				if !k.ended {
					return false
				}
			}
			return true
		}
		e.Spawn("host", func(p *sim.Process) {
			for op := 0; op < 30; op++ {
				switch r := rng.Intn(10); {
				case r < 6:
					k := &launched{stream: rng.Intn(len(streams)), grid: 1 + rng.Intn(d.MaxResidentBlocks)}
					dur := sim.Duration(rng.Intn(20)) * sim.Microsecond
					i := len(ks)
					d.Launch(p, streams[k.stream], &Kernel{Name: "k", Grid: k.grid, Body: func(kc *KernelCtx) {
						resident := k.grid
						for j, o := range ks {
							if o.started && !o.ended {
								resident += o.grid
								if o.stream == k.stream {
									fail("kernel %d started while kernel %d of its stream runs", i, j)
								}
							}
						}
						if resident > d.MaxResidentBlocks {
							fail("kernel %d started with %d blocks resident, capacity %d", i, resident, d.MaxResidentBlocks)
						}
						if !allEndedBefore(k.behind) {
							fail("kernel %d started before the %d kernels ahead of its sync point completed", i, k.behind)
						}
						k.started = true
						kc.Sleep(dur)
						k.ended = true
					}})
					for _, n := range active {
						k.behind = max(k.behind, n)
					}
					ks = append(ks, k)
				case r < 8:
					p.Spawn("sync", func(sp *sim.Process) {
						n := len(ks)
						active = append(active, n)
						d.Synchronize(sp)
						i := slices.Index(active, n)
						active = slices.Delete(active, i, i+1)
						if !allEndedBefore(n) {
							fail("Synchronize returned before the %d kernels launched ahead of it completed", n)
						}
					})
				default:
					p.Sleep(sim.Duration(rng.Intn(10)) * sim.Microsecond)
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if !allEndedBefore(len(ks)) {
			fail("not every kernel completed")
		}
		if t.Failed() {
			return
		}
	}
}
