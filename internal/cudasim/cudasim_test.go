package cudasim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

func newTestDevice(e *sim.Engine) *Device {
	return NewDevice(e, 0, topo.RTX3090)
}

func spin(kc *KernelCtx, d sim.Duration) { kc.Sleep(d) }

func TestKernelRunsAndCompletes(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	ran := 0
	e.Spawn("host", func(p *sim.Process) {
		k := d.Launch(p, d.NewStream(), &Kernel{Name: "k", Grid: 4, Body: func(kc *KernelCtx) {
			spin(kc, 10*sim.Microsecond)
			ran++
		}})
		k.Wait(p)
		if !k.Done() {
			t.Error("kernel not done after Wait")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 1 {
		t.Fatalf("kernel body ran %d times, want 1", ran)
	}
}

func TestSameStreamSerializes(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	var order []string
	body := func(name string, dur sim.Duration) *Kernel {
		return &Kernel{Name: name, Grid: 1, Body: func(kc *KernelCtx) {
			spin(kc, dur)
			order = append(order, name)
		}}
	}
	e.Spawn("host", func(p *sim.Process) {
		s := d.NewStream()
		// First kernel is slow; second is fast but must still finish second.
		d.Launch(p, s, body("slow", 100*sim.Microsecond))
		k2 := d.Launch(p, s, body("fast", 1*sim.Microsecond))
		k2.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != "slow" {
		t.Fatalf("order = %v, want [slow fast]", order)
	}
}

func TestDifferentStreamsOverlap(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	var end sim.Time
	e.Spawn("host", func(p *sim.Process) {
		k1 := d.Launch(p, d.NewStream(), &Kernel{Name: "a", Grid: 4, Body: func(kc *KernelCtx) { spin(kc, 100*sim.Microsecond) }})
		k2 := d.Launch(p, d.NewStream(), &Kernel{Name: "b", Grid: 4, Body: func(kc *KernelCtx) { spin(kc, 100*sim.Microsecond) }})
		k1.Wait(p)
		k2.Wait(p)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Two launches (5us each) + one overlapped 100us body ≈ 110us, far
	// below the 200us a serialized run would take.
	if end > sim.Time(150*sim.Microsecond) {
		t.Fatalf("end = %v; streams did not overlap", end)
	}
}

func TestResourceDepletionBlocksStart(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	d.MaxResidentBlocks = 4
	var secondStarted sim.Time
	e.Spawn("host", func(p *sim.Process) {
		k1 := d.Launch(p, d.NewStream(), &Kernel{Name: "hog", Grid: 4, Body: func(kc *KernelCtx) { spin(kc, 50*sim.Microsecond) }})
		k2 := d.Launch(p, d.NewStream(), &Kernel{Name: "second", Grid: 1, Body: func(kc *KernelCtx) {
			secondStarted = kc.Now()
		}})
		k1.Wait(p)
		k2.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if secondStarted < sim.Time(50*sim.Microsecond) {
		t.Fatalf("second started at %v, before hog released resources", secondStarted)
	}
}

func TestDeviceSynchronizeBarrier(t *testing.T) {
	// A kernel launched after DeviceSynchronize must not start until
	// kernels launched before it complete, even though slots are free.
	e := sim.NewEngine()
	d := newTestDevice(e)
	release := sim.NewCond("release")
	var lateStarted, firstDone sim.Time
	e.Spawn("host", func(p *sim.Process) {
		d.Launch(p, d.NewStream(), &Kernel{Name: "first", Grid: 1, Body: func(kc *KernelCtx) {
			release.Wait(kc.Process)
			firstDone = kc.Now()
		}})
		p.Spawn("syncer", func(sp *sim.Process) {
			d.Synchronize(sp)
		})
		p.Sleep(1 * sim.Microsecond) // let the syncer install its barrier
		d.Launch(p, d.NewStream(), &Kernel{Name: "late", Grid: 1, Body: func(kc *KernelCtx) {
			lateStarted = kc.Now()
		}})
		p.Sleep(100 * sim.Microsecond)
		release.Broadcast(p.Engine())
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lateStarted < firstDone {
		t.Fatalf("late started at %v before first finished at %v despite sync barrier", lateStarted, firstDone)
	}
}

func TestSynchronizeReturnsImmediatelyWhenIdle(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	e.Spawn("host", func(p *sim.Process) {
		before := p.Now()
		d.Synchronize(p)
		if p.Now() != before {
			t.Error("Synchronize on idle device should not block")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSyncDeadlockScenario(t *testing.T) {
	// The paper's Fig. 1(d): a kernel busy-waits forever on a condition
	// that only a kernel launched after a device synchronization could
	// satisfy. The barrier prevents it from starting: global deadlock.
	e := sim.NewEngine()
	d := newTestDevice(e)
	c := sim.NewCond("never-without-late")
	e.Spawn("host", func(p *sim.Process) {
		d.Launch(p, d.NewStream(), &Kernel{Name: "waiter", Grid: 1, Body: func(kc *KernelCtx) {
			c.Wait(kc.Process) // holds its slot while waiting: hold-and-wait
		}})
		p.Spawn("syncer", func(sp *sim.Process) { d.Synchronize(sp) })
		p.Sleep(1 * sim.Microsecond)
		d.Launch(p, d.NewStream(), &Kernel{Name: "late-signaler", Grid: 1, Body: func(kc *KernelCtx) {
			c.Broadcast(kc.Engine())
		}})
	})
	if err := e.Run(); !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestOversizedGridPanics(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	d.MaxResidentBlocks = 2
	e.Spawn("host", func(p *sim.Process) {
		d.Launch(p, d.NewStream(), &Kernel{Name: "huge", Grid: 3, Body: func(kc *KernelCtx) {}})
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected panic error for oversized grid")
	}
}

// panicMessage runs f and returns what it panicked with, "" if nothing.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func TestStreamDestroy(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDevice(e)
	s1, s2, s3 := d.NewStream(), d.NewStream(), d.NewStream()
	e.Spawn("host", func(p *sim.Process) {
		d.Launch(p, s2, &Kernel{Name: "running", Grid: 1, Body: func(kc *KernelCtx) { spin(kc, 10*sim.Microsecond) }})
		if msg := panicMessage(s2.Destroy); !strings.Contains(msg, "stream-destroy-busy") {
			t.Errorf("Destroy on a running stream panicked with %q, want stream-destroy-busy", msg)
		}
		k := d.Enqueue(s2, &Kernel{Name: "queued", Grid: 1, Body: func(kc *KernelCtx) {}})
		if msg := panicMessage(s2.Destroy); !strings.Contains(msg, "stream-destroy-busy") {
			t.Errorf("Destroy on a stream with a queued kernel panicked with %q, want stream-destroy-busy", msg)
		}
		k.Wait(p)
		s2.Destroy()
		if msg := panicMessage(s2.Destroy); !strings.Contains(msg, "stream-destroyed") {
			t.Errorf("a second Destroy panicked with %q, want stream-destroyed", msg)
		}
		if msg := panicMessage(func() { d.Enqueue(s2, &Kernel{Name: "late", Grid: 1}) }); msg == "" {
			t.Error("a launch on a destroyed stream did not panic")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if d.Streams() != 2 || d.streams[0] != s1 || d.streams[1] != s3 {
		t.Fatalf("streams after destroying the second of three: %d, want the first and third in order", d.Streams())
	}
}
