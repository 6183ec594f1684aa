// Package cudasim simulates the CUDA execution model at the fidelity the
// paper's deadlock analysis (Sec. 2.3) requires:
//
//   - Mutual exclusion: kernels occupy SM block slots; slots held by one
//     kernel are unavailable to others.
//   - Hold and wait: kernel bodies may busy-wait on conditions while
//     holding their slots (that is what NCCL primitives do).
//   - No preemption: once started, a kernel runs until its body returns;
//     nothing in the runtime can evict it.
//   - GPU synchronization: explicit DeviceSynchronize and implicit
//     synchronization (pinned-memory allocation, default-stream commands)
//     suspend the device — kernels launched after the synchronization
//     point cannot start, even into idle slots, until every kernel
//     launched before it has completed.
//
// Streams serialize their own commands; kernels from different streams
// run concurrently when slots suffice. All host-side code runs as sim
// processes, so the entire CPU+GPU system shares one virtual clock.
package cudasim

import (
	"fmt"
	"slices"

	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// LaunchOverhead is the host-side cost of launching one kernel,
// calibrated to the ~5µs cudaLaunchKernel cost on the paper's testbed.
const LaunchOverhead = 5 * sim.Microsecond

// PinnedAllocTime is the host-side cost of a page-locked allocation.
const PinnedAllocTime = 10 * sim.Microsecond

// Device is one simulated GPU.
type Device struct {
	Rank   int
	Model  topo.GPUModel
	engine *sim.Engine

	// MaxResidentBlocks bounds concurrently resident kernel blocks.
	MaxResidentBlocks int
	residentBlocks    int

	launchSeq  uint64
	streams    []*Stream
	incomplete map[*KernelInstance]struct{}
	barriers   []*syncBarrier

	// idle is broadcast whenever an incomplete kernel finishes;
	// synchronizers wait on it.
	idle *sim.Cond

	// Stats.
	KernelsLaunched  int
	KernelsCompleted int
	SyncsIssued      int
}

type syncBarrier struct {
	seq  uint64
	cond *sim.Cond
}

// NewDevice creates a device with the model's SM count, allowing one
// resident block per SM (the regime in which NCCL channel kernels and
// the daemon kernel operate).
func NewDevice(e *sim.Engine, rank int, model topo.GPUModel) *Device {
	d := &Device{
		Rank:              rank,
		Model:             model,
		engine:            e,
		MaxResidentBlocks: model.NumSMs,
		incomplete:        make(map[*KernelInstance]struct{}),
		idle:              sim.NewCond(fmt.Sprintf("gpu%d.idle", rank)),
	}
	d.defaultStream() // stream 0 exists from the start
	return d
}

// Engine returns the simulation engine.
func (d *Device) Engine() *sim.Engine { return d.engine }

// FreeBlocks returns currently unoccupied block slots.
func (d *Device) FreeBlocks() int { return d.MaxResidentBlocks - d.residentBlocks }

func (d *Device) defaultStream() *Stream {
	if len(d.streams) == 0 {
		d.streams = append(d.streams, &Stream{dev: d, id: 0})
	}
	return d.streams[0]
}

// DefaultStream returns the legacy default stream (implicitly
// synchronizing with all other streams).
func (d *Device) DefaultStream() *Stream { return d.streams[0] }

// NewStream creates an independent (non-blocking) stream.
func (d *Device) NewStream() *Stream {
	s := &Stream{dev: d, id: len(d.streams)}
	d.streams = append(d.streams, s)
	return s
}

// minBarrierSeq returns the smallest active synchronization point, or
// ^uint64(0) when none is active.
func (d *Device) minBarrierSeq() uint64 {
	min := ^uint64(0)
	for _, b := range d.barriers {
		if b.seq < min {
			min = b.seq
		}
	}
	return min
}

// oldestIncompleteSeq returns the smallest launch sequence among
// incomplete kernels, or ^uint64(0) when the device is idle.
func (d *Device) oldestIncompleteSeq() uint64 {
	min := ^uint64(0)
	for k := range d.incomplete {
		if k.seq < min {
			min = k.seq
		}
	}
	return min
}

// tryDispatch starts every stream-head kernel that may legally run.
// It loops because starting one kernel can unblock nothing, but
// completing one (the other call site) can unblock several.
func (d *Device) tryDispatch() {
	for {
		started := false
		barrier := d.minBarrierSeq()
		for _, s := range d.streams {
			if len(s.queue) == 0 {
				continue
			}
			k := s.queue[0]
			if k.seq >= barrier {
				continue // launched after an active synchronization point
			}
			if d.hasIncompleteStartedOnStream(s, k.seq) {
				continue // same-stream predecessor still executing
			}
			if k.kernel.Exclusive && d.oldestIncompleteSeq() < k.seq {
				continue // default-stream kernel waits for the whole device
			}
			if d.exclusiveActive(k.seq) {
				continue // a default-stream kernel launched earlier blocks us
			}
			if k.kernel.Grid > d.MaxResidentBlocks {
				panic(fmt.Sprintf("cudasim: kernel %s grid %d exceeds device capacity %d",
					k.kernel.Name, k.kernel.Grid, d.MaxResidentBlocks))
			}
			if d.residentBlocks+k.kernel.Grid > d.MaxResidentBlocks {
				continue // resource depletion: not enough free slots
			}
			s.queue = slices.Delete(s.queue, 0, 1) // keeps the array for the next launch
			d.start(k)
			started = true
		}
		if !started {
			return
		}
	}
}

// exclusiveActive reports whether an incomplete default-stream kernel
// with a smaller sequence blocks kernels at seq. Legacy default-stream
// commands are ordering points even before they start executing.
func (d *Device) exclusiveActive(seq uint64) bool {
	for k := range d.incomplete {
		if k.kernel.Exclusive && k.seq < seq {
			return true
		}
	}
	return false
}

// hasIncompleteStartedOnStream reports whether stream s has an earlier
// kernel still executing; same-stream commands serialize on completion.
func (d *Device) hasIncompleteStartedOnStream(s *Stream, seq uint64) bool {
	for k := range d.incomplete {
		if k.stream == s && k.seq < seq && k.started && !k.done {
			return true
		}
	}
	return false
}

func (d *Device) start(k *KernelInstance) {
	d.residentBlocks += k.kernel.Grid
	k.started = true
	k.StartedAt = d.engine.Now()
	d.engine.Spawn(k.kernel.Name, func(p *sim.Process) {
		k.ctx = KernelCtx{Process: p, Dev: d, Instance: k}
		k.kernel.Body(&k.ctx)
		d.complete(k)
	})
}

func (d *Device) complete(k *KernelInstance) {
	d.residentBlocks -= k.kernel.Grid
	k.done = true
	k.CompletedAt = d.engine.Now()
	delete(d.incomplete, k)
	d.KernelsCompleted++
	k.doneCond.Broadcast(d.engine)
	d.liftBarriers()
	d.tryDispatch()
	d.idle.Broadcast(d.engine)
}

func (d *Device) liftBarriers() {
	kept := d.barriers[:0]
	for _, b := range d.barriers {
		if d.hasIncompleteBefore(b.seq) {
			kept = append(kept, b)
		} else {
			b.cond.Broadcast(d.engine)
		}
	}
	d.barriers = kept
}

func (d *Device) hasIncompleteBefore(seq uint64) bool {
	for k := range d.incomplete {
		if k.seq < seq {
			return true
		}
	}
	return false
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
// launches with a wait of LaunchOverhead, then Enqueue.
func (d *Device) Enqueue(s *Stream, k *Kernel) *KernelInstance {
	if s.dev != d {
		panic("cudasim: stream belongs to a different device")
	}
	d.launchSeq++
	ki := &KernelInstance{kernel: *k, seq: d.launchSeq, stream: s}
	d.incomplete[ki] = struct{}{}
	s.queue = append(s.queue, ki)
	d.KernelsLaunched++
	d.tryDispatch()
	return ki
}

// Synchronize blocks the calling host process until every kernel
// launched so far (on any stream) completes, and prevents kernels
// launched afterwards from starting until then — the paper's explicit
// GPU synchronization semantics.
func (d *Device) Synchronize(p *sim.Process) {
	d.SyncsIssued++
	seq := d.launchSeq + 1
	if !d.hasIncompleteBefore(seq) {
		return
	}
	b := &syncBarrier{seq: seq, cond: sim.NewCond(fmt.Sprintf("gpu%d.sync", d.Rank))}
	d.barriers = append(d.barriers, b)
	b.cond.Wait(p)
}

// AllocPinned allocates page-locked host memory. Per Sec. 2.3, this is
// an implicit GPU synchronization: it behaves exactly like
// DeviceSynchronize before the allocation proceeds.
func (d *Device) AllocPinned(p *sim.Process, t mem.DataType, count int) *mem.Buffer {
	d.Synchronize(p)
	p.Sleep(PinnedAllocTime)
	return mem.NewBuffer(mem.PinnedSpace, t, count)
}
