package cudasim

import "dfccl/internal/sim"

// Kernel is a GPU program: a grid of blocks running Body. The simulator
// runs the body as one process and accounts Grid block slots, which is
// the granularity at which scheduling and deadlock behaviour manifest.
type Kernel struct {
	Name string
	// Grid is the number of blocks the kernel occupies while resident.
	Grid int
	Body func(kc *KernelCtx)
}

// KernelCtx is passed to a kernel body; it carries the sim process the
// kernel runs as.
type KernelCtx struct {
	*sim.Process
}

// KernelInstance is one launched execution of a kernel. It keeps its own
// copy of the kernel, so a launcher may reuse one Kernel for every launch
// and change it between them, and holds what its run needs by value: a
// launch allocates the instance, and starting it the process and the
// body's closure.
type KernelInstance struct {
	kernel Kernel
	seq    uint64
	stream *Stream
	done   bool

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

// Stream is a CUDA stream: commands issued to it execute in FIFO order;
// commands in different streams may run concurrently.
type Stream struct {
	dev   *Device
	queue []*KernelInstance // launched, not yet started
	// running is set while one of the stream's kernels executes; the
	// next waits for it to complete.
	running bool
}
