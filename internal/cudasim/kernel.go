package cudasim

import "dfccl/internal/sim"

// Kernel is a GPU program: a grid of blocks running Body. The simulator
// runs the body as one process and accounts Grid block slots, which is
// the granularity at which scheduling and deadlock behaviour manifest.
type Kernel struct {
	Name string
	// Grid is the number of blocks the kernel occupies while resident.
	Grid int
	// Exclusive marks legacy default-stream semantics: the kernel waits
	// for the whole device and blocks all later kernels while running.
	Exclusive bool
	Body      func(kc *KernelCtx)
}

// KernelCtx is passed to a kernel body; it carries the sim process and
// the device the kernel runs on.
type KernelCtx struct {
	*sim.Process
	Dev      *Device
	Instance *KernelInstance
}

// KernelInstance is one launched execution of a kernel. It keeps its own
// copy of the kernel, so a launcher may reuse one Kernel for every launch
// and change it between them, and holds what its run needs by value: a
// launch allocates the instance, and starting it the process and the
// body's closure.
type KernelInstance struct {
	kernel  Kernel
	seq     uint64
	stream  *Stream
	started bool
	done    bool

	StartedAt   sim.Time
	CompletedAt sim.Time

	doneCond sim.Cond
	ctx      KernelCtx // what the body is passed
}

// Done reports completion.
func (k *KernelInstance) Done() bool { return k.done }

// Kernel returns the kernel definition as launched.
func (k *KernelInstance) Kernel() *Kernel { return &k.kernel }

// Wait blocks the host process until the kernel completes.
func (k *KernelInstance) Wait(p *sim.Process) {
	for !k.done {
		k.doneCond.Wait(p)
	}
}

// WaitTimeout blocks until completion or timeout; reports true on timeout.
func (k *KernelInstance) WaitTimeout(p *sim.Process, d sim.Duration) bool {
	for !k.done {
		if k.doneCond.WaitTimeout(p, d) {
			return !k.done
		}
	}
	return false
}

// Stream is a CUDA stream: commands issued to it execute in FIFO order;
// commands in different (non-default) streams may run concurrently.
type Stream struct {
	dev   *Device
	id    int
	queue []*KernelInstance
}

// ID returns the stream index on its device (0 = default stream).
func (s *Stream) ID() int { return s.id }

// Device returns the owning device.
func (s *Stream) Device() *Device { return s.dev }

// Synchronize blocks the host process until all work currently enqueued
// on this stream completes. Unlike DeviceSynchronize it does not suspend
// the device.
func (s *Stream) Synchronize(p *sim.Process) {
	if len(s.queue) == 0 {
		// Find the most recently launched incomplete kernel of this
		// stream among running kernels.
		var last *KernelInstance
		for k := range s.dev.incomplete {
			if k.stream == s && (last == nil || k.seq > last.seq) {
				last = k
			}
		}
		if last == nil {
			return
		}
		last.Wait(p)
		s.Synchronize(p)
		return
	}
	last := s.queue[len(s.queue)-1]
	last.Wait(p)
	s.Synchronize(p)
}
