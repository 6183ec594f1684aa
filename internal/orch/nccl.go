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
	// singleStream shares one stream per rank across all collectives
	// (NCCL's default-queue regime); the rank's stream is keyed by
	// collective ID -1.
	singleStream bool

	lib   *ncclsim.Lib
	colls []*collState
	strms map[bufKey]*cudasim.Stream
	bufs  map[bufKey]bufPair
	kerns map[bufKey]*cudasim.KernelInstance // most recent launch
}

func newNCCL(e *sim.Engine, c *topo.Cluster, name string, singleStream bool) *NCCL {
	return &NCCL{
		name:         name,
		singleStream: singleStream,
		lib:          ncclsim.New(e, c),
		strms:        make(map[bufKey]*cudasim.Stream),
		bufs:         make(map[bufKey]bufPair),
		kerns:        make(map[bufKey]*cudasim.KernelInstance),
	}
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
	key := bufKey{rank, collID}
	if _, ok := b.bufs[key]; ok {
		return fmt.Errorf("orch: collective %d already registered on rank %d", collID, rank)
	}
	c, bufs, err := register(b.colls, rank, collID, spec, send, recv)
	if err != nil {
		return err
	}
	if c.comm == nil {
		c.comm = b.lib.NewComm(spec.Ranks)
	}
	sk := b.streamKey(rank, collID)
	if !b.singleStream || b.strms[sk] == nil {
		b.strms[sk] = b.lib.Device(rank).NewStream()
	}
	commit(&b.colls, c)
	b.bufs[key] = bufs
	return nil
}

// streamKey keys the stream a launch of collID on rank uses.
func (b *NCCL) streamKey(rank, collID int) bufKey {
	if b.singleStream {
		return bufKey{rank, -1}
	}
	return bufKey{rank, collID}
}

// Deregister implements Backend: drop a rank's registration; the last
// rank out drops the communicator. NCCL has no communicator pool: the
// dropped communicator is garbage, and the next dynamic group builds a
// new one — the recreation cost DFCCL's pool avoids.
func (b *NCCL) Deregister(p *sim.Process, rank, collID int) error {
	key := bufKey{rank, collID}
	if _, ok := b.bufs[key]; !ok {
		return fmt.Errorf("orch: collective %d not registered on rank %d", collID, rank)
	}
	if k := b.kerns[key]; k != nil && !k.Done() {
		return fmt.Errorf("orch: collective %d still running on rank %d", collID, rank)
	}
	delete(b.bufs, key)
	delete(b.strms, key) // a single stream stays: the rank's other collectives use it
	delete(b.kerns, key)
	deregister(&b.colls, collID)
	return nil
}

// Launch implements Backend: enqueue the collective kernel for rank on
// its stream at once. Runs of one collective serialize through the
// per-(rank, collective) stream; in single-stream mode every collective
// of the rank serializes.
func (b *NCCL) Launch(p *sim.Process, rank, collID int) error {
	c := find(b.colls, collID)
	if c == nil {
		return fmt.Errorf("orch: collective %d not registered", collID)
	}
	key := bufKey{rank, collID}
	bufs, ok := b.bufs[key]
	if !ok {
		// The collective survives on other ranks but this rank has
		// deregistered (or never registered) it.
		return fmt.Errorf("orch: collective %d not registered on rank %d", collID, rank)
	}
	b.kerns[key] = c.comm.Launch(p, b.strms[b.streamKey(rank, collID)], rank, c.spec, bufs.send, bufs.recv)
	c.launched[rank]++
	return nil
}

// Wait implements Backend: completion is observed lazily, through the
// kernel handle of the most recent launch.
func (b *NCCL) Wait(p *sim.Process, rank, collID int) {
	if k := b.kerns[bufKey{rank, collID}]; k != nil {
		k.Wait(p)
	}
}

// WaitAll implements Backend, waiting for the collectives registered on
// entry (a wait yields to other ranks' Register/Deregister) by ID.
func (b *NCCL) WaitAll(p *sim.Process, rank int) {
	for _, c := range slices.Clone(b.colls) {
		if c.launched[rank] > 0 {
			b.Wait(p, rank, c.id)
		}
	}
}

// Teardown implements Backend: NCCL holds no per-rank process to stop.
func (b *NCCL) Teardown(p *sim.Process, rank int) {}

// CommsCreated implements Backend: ncclsim never recycles communicators,
// so this grows with every dynamic group.
func (b *NCCL) CommsCreated() int { return b.lib.CommsCreated() }
