// Package cudasim simulates the CUDA execution model at the fidelity the
// paper's deadlock analysis (Sec. 2.3) requires:
//
//   - Mutual exclusion: kernels occupy SM block slots; slots held by one
//     kernel are unavailable to others.
//   - Hold and wait: kernel bodies may busy-wait on conditions while
//     holding their slots (that is what NCCL primitives do).
//   - No preemption: once started, a kernel runs until its body returns;
//     nothing in the runtime can evict it.
//   - GPU synchronization: DeviceSynchronize suspends the device —
//     kernels launched after the synchronization point cannot start,
//     even into idle slots, until every kernel launched before it has
//     completed. The paper's implicit synchronizations (pinned-memory
//     allocation, default-stream commands) are the same barrier.
//
// Streams serialize their own commands; kernels from different streams
// run concurrently when slots suffice. All host-side code runs as sim
// processes, so the entire CPU+GPU system shares one virtual clock.
package cudasim

import (
	"fmt"
	"slices"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// LaunchOverhead is the host-side cost of launching one kernel,
// calibrated to the ~5µs cudaLaunchKernel cost on the paper's testbed.
const LaunchOverhead = 5 * sim.Microsecond

// Device is one simulated GPU.
type Device struct {
	Rank   int
	Model  topo.GPUModel
	engine *sim.Engine

	// MaxResidentBlocks bounds concurrently resident kernel blocks.
	MaxResidentBlocks int
	residentBlocks    int

	launchSeq uint64
	streams   []*Stream
	// incomplete holds every launched kernel that has not completed, in
	// launch order: sequence numbers only grow, so the first is the
	// oldest.
	incomplete []*KernelInstance
	// barriers are the active synchronization points, in the order they
	// were set and so in ascending sequence: they lift as a prefix.
	barriers []*syncBarrier
}

// syncBarrier is one Synchronize call's synchronization point: kernels
// launched at or after seq wait until every kernel before it completes.
type syncBarrier struct {
	seq  uint64
	cond sim.Cond
}

// NewDevice creates a device with the model's SM count, allowing one
// resident block per SM (the regime in which NCCL channel kernels and
// the daemon kernel operate).
func NewDevice(e *sim.Engine, rank int, model topo.GPUModel) *Device {
	return &Device{Rank: rank, Model: model, engine: e, MaxResidentBlocks: model.NumSMs}
}

// NewStream creates an independent stream.
func (d *Device) NewStream() *Stream {
	s := &Stream{dev: d}
	d.streams = append(d.streams, s)
	return s
}

// Streams returns how many streams the device holds: made, not destroyed.
func (d *Device) Streams() int { return len(d.streams) }

// Destroy releases s, the analogue of cudaStreamDestroy: its device no
// longer visits it when it dispatches, and the other streams keep their
// creation order. It panics on a stream with a kernel running or queued
// (stream-destroy-busy) and on one destroyed before (stream-destroyed).
func (s *Stream) Destroy() {
	if s.running || len(s.queue) > 0 {
		panic("cudasim: stream-destroy-busy: Destroy on a stream with a kernel running or queued")
	}
	d := s.dev
	if d == nil {
		panic("cudasim: stream-destroyed: Destroy on a stream destroyed before")
	}
	i := slices.Index(d.streams, s)
	d.streams = slices.Delete(d.streams, i, i+1)
	s.dev = nil
}

// dispatch starts, in stream creation order, every stream head that may
// legally run: its stream is idle, it was launched before every active
// synchronization point, and its blocks fit. One pass suffices, since a
// start only takes slots and busies its own stream.
func (d *Device) dispatch() {
	barrier := ^uint64(0)
	if len(d.barriers) > 0 {
		barrier = d.barriers[0].seq
	}
	for _, s := range d.streams {
		if s.running || len(s.queue) == 0 {
			continue
		}
		k := s.queue[0]
		if k.seq >= barrier || d.residentBlocks+k.kernel.Grid > d.MaxResidentBlocks {
			continue
		}
		s.queue = slices.Delete(s.queue, 0, 1) // keeps the array for the next launch
		d.residentBlocks += k.kernel.Grid
		s.running = true
		k.StartedAt = d.engine.Now()
		d.engine.Spawn(k.kernel.Name, func(p *sim.Process) {
			k.ctx = KernelCtx{Process: p}
			k.kernel.Body(&k.ctx)
			d.complete(k)
		})
	}
}

// complete retires k, lifts the synchronization points that no earlier
// kernel holds any more, and starts what k's slots and stream free.
func (d *Device) complete(k *KernelInstance) {
	d.residentBlocks -= k.kernel.Grid
	k.stream.running = false
	k.done = true
	k.CompletedAt = d.engine.Now()
	i := slices.Index(d.incomplete, k)
	d.incomplete = slices.Delete(d.incomplete, i, i+1)
	k.doneCond.Broadcast(d.engine)
	lifted := 0
	for _, b := range d.barriers {
		if len(d.incomplete) > 0 && d.incomplete[0].seq < b.seq {
			break
		}
		b.cond.Broadcast(d.engine)
		lifted++
	}
	d.barriers = slices.Delete(d.barriers, 0, lifted)
	d.dispatch()
}

// Launch enqueues kernel k on stream s. The calling host process pays
// the launch overhead; execution is asynchronous. It returns a handle
// the host can wait on.
func (d *Device) Launch(p *sim.Process, s *Stream, k *Kernel) *KernelInstance {
	p.Sleep(LaunchOverhead)
	return d.Enqueue(s, k)
}

// Enqueue is the second half of Launch: it adds kernel k to stream s at no
// host-side cost. Code that makes its waits as a machine (sim.Stepper)
// launches with a wait of LaunchOverhead, then Enqueue. It panics when s
// belongs to another device or k's grid exceeds the device: such a
// kernel could never start.
func (d *Device) Enqueue(s *Stream, k *Kernel) *KernelInstance {
	if s.dev != d {
		panic("cudasim: stream belongs to a different device, or was destroyed")
	}
	if k.Grid > d.MaxResidentBlocks {
		panic(fmt.Sprintf("cudasim: kernel %s grid %d exceeds device capacity %d",
			k.Name, k.Grid, d.MaxResidentBlocks))
	}
	d.launchSeq++
	ki := &KernelInstance{kernel: *k, seq: d.launchSeq, stream: s}
	d.incomplete = append(d.incomplete, ki)
	s.queue = append(s.queue, ki)
	d.dispatch()
	return ki
}

// Synchronize blocks the calling host process until every kernel
// launched so far (on any stream) completes, and prevents kernels
// launched afterwards from starting until then — the paper's explicit
// GPU synchronization semantics.
func (d *Device) Synchronize(p *sim.Process) {
	if len(d.incomplete) == 0 {
		return
	}
	b := &syncBarrier{seq: d.launchSeq + 1}
	d.barriers = append(d.barriers, b)
	b.cond.Wait(p)
}
