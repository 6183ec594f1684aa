package orch

import (
	"fmt"
	"slices"

	"dfccl/internal/cudasim"
	"dfccl/internal/mem"
	"dfccl/internal/ncclsim"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// NCCL is the NCCL runtime every NCCL-backed orchestrator launches
// through: one communicator per registered collective (concurrent
// collectives must not share one), one stream per (rank, collective) —
// or one per rank in single-stream mode — and completion tracking via
// kernel handles. On its own it launches every collective the moment
// the rank asks, in program order; Horovod and KungFu put a release
// rule in front of it.
type NCCL struct {
	name string
	lib  *ncclsim.Lib
	// streams holds each rank's one stream in single-stream mode (NCCL's
	// default-queue regime), shared by all of the rank's collectives;
	// nil otherwise.
	streams []*cudasim.Stream
	registry
}

func newNCCL(e *sim.Engine, c *topo.Cluster, name string, singleStream bool) *NCCL {
	b := &NCCL{name: name, lib: ncclsim.New(e, c)}
	if singleStream {
		for rank := range c.Size() {
			b.streams = append(b.streams, b.lib.Device(rank).NewStream())
		}
	}
	return b
}

// NewStaticSort builds the OneFlow-style baseline: the framework
// compiler sorts collectives topologically, and every rank launches
// them immediately in that (identical) order at runtime — no runtime
// negotiation, no extra overhead, but only applicable when the
// framework can statically plan all collectives.
func NewStaticSort(e *sim.Engine, c *topo.Cluster) *NCCL {
	return newNCCL(e, c, "nccl-staticsort", false)
}

// NewNCCLSingleStream builds NCCL in the paper's Fig. 1(c) regime: every
// collective of a rank launches into the same CUDA stream, with no CPU
// orchestration of launch order. A kernel busy-waiting for a peer
// blocks every later launch on that GPU, so any cross-rank disorder in
// launch order creates circular wait and the simulation reports a
// global deadlock — the baseline the MoE and ZeRO deadlock-ratio
// comparisons run against.
func NewNCCLSingleStream(e *sim.Engine, c *topo.Cluster) *NCCL {
	return newNCCL(e, c, "nccl-singlestream", true)
}

// Name implements Backend.
func (b *NCCL) Name() string { return b.name }

// Register implements Backend. The spec's algorithm must be concrete:
// the NCCL runtime has no tuning table to resolve prim.AlgoAuto against.
func (b *NCCL) Register(p *sim.Process, rank, collID int, spec prim.Spec, priority int, send, recv *mem.Buffer) error {
	if spec.Algo == prim.AlgoAuto {
		return fmt.Errorf("orch: %s cannot run collective %d with %v: pick ring or hierarchical", b.name, collID, spec.Algo)
	}
	c, m, err := b.register(rank, collID, spec, send, recv)
	if err != nil {
		return err
	}
	if c.comm == nil {
		c.comm = b.lib.NewComm(spec.Ranks)
	}
	if b.streams != nil {
		m.stream = b.streams[rank]
	} else {
		m.stream = b.lib.Device(rank).NewStream()
	}
	b.commit(c, m)
	return nil
}

// Deregister implements Backend: drop a rank's registration and destroy
// its stream (not the rank's shared one in single-stream mode); the last
// rank out drops the communicator. NCCL has no communicator pool: the
// dropped communicator is garbage, and the next dynamic group builds a
// new one — the recreation cost DFCCL's pool avoids. A run announced
// and not yet launched, or launched and not done, refuses it.
func (b *NCCL) Deregister(p *sim.Process, rank, collID int) error {
	c, m, err := b.lookup(rank, collID)
	if err != nil {
		return err
	}
	if m.launched < m.announced || m.kern != nil && !m.kern.Done() {
		return fmt.Errorf("orch: collective %d still running on rank %d", collID, rank)
	}
	if b.streams == nil {
		m.stream.Destroy()
	}
	b.deregister(c, m)
	return nil
}

// Launch implements Backend: enqueue the collective kernel for rank on
// its stream at once. Runs of one collective serialize through the
// per-(rank, collective) stream; in single-stream mode every collective
// of the rank serializes.
func (b *NCCL) Launch(p *sim.Process, rank, collID int) error {
	c, m, err := b.lookup(rank, collID)
	if err != nil {
		return err
	}
	m.announced++
	b.start(p, rank, c, m)
	return nil
}

// start launches rank's next announced run of c on the runtime and
// wakes the rank's waiters, which wait for the launch before the kernel.
func (b *NCCL) start(p *sim.Process, rank int, c *collState, m *member) {
	m.kern = c.comm.Launch(p, m.stream, rank, c.spec, m.send, m.recv)
	m.launched++
	c.doneCond.Broadcast(p.Engine())
}

// Wait implements Backend: block until every run of collID announced on
// rank has started (a release rule may hold runs back), then observe
// completion lazily, through the kernel handle of the most recent
// launch.
func (b *NCCL) Wait(p *sim.Process, rank, collID int) {
	c, m, err := b.lookup(rank, collID)
	if err != nil {
		return
	}
	for m.launched < m.announced {
		c.doneCond.Wait(p)
	}
	if m.kern != nil {
		m.kern.Wait(p)
	}
}

// WaitAll implements Backend, waiting for the collectives registered on
// entry (a wait yields to other ranks' Register/Deregister) by ID.
func (b *NCCL) WaitAll(p *sim.Process, rank int) {
	for _, c := range slices.Clone(b.colls) {
		if m := c.member(rank); m != nil && m.announced > 0 {
			b.Wait(p, rank, c.id)
		}
	}
}

// Teardown implements Backend: NCCL holds no per-rank process to stop.
func (b *NCCL) Teardown(p *sim.Process, rank int) {}

// CommsCreated implements Backend: ncclsim never recycles communicators,
// so this grows with every dynamic group.
func (b *NCCL) CommsCreated() int { return b.lib.CommsCreated() }
