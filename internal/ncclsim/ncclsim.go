// Package ncclsim implements the NCCL-like baseline library the paper
// compares against: each collective call launches a dedicated kernel
// that executes the rank's ring primitive sequence with *indefinite*
// busy-waiting while holding its SM blocks. This reproduces NCCL's
// deadlock anatomy exactly (Sec. 2.3): mutual exclusion on block slots,
// hold-and-wait inside primitives, and no preemption. Whether a
// disordered workload deadlocks then depends only on streams, resources,
// and GPU synchronization — just as in the paper's Fig. 1.
package ncclsim

import (
	"fmt"

	"dfccl/internal/cudasim"
	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// KernelStartup is the fixed in-kernel setup cost before primitives run
// (loading communicator state, channel setup), calibrated so small-buffer
// end-to-end latency lands near the paper's Fig. 9(a) measurements.
const KernelStartup = 2 * sim.Microsecond

// RoundResync is the per-chunk-round channel resynchronization cost a
// dedicated NCCL kernel pays between chunk loops. DFCCL's daemon kernel
// avoids it by fusing rounds across its resident pipeline — the source
// of the core-execution-time gap in Fig. 9(b).
const RoundResync = 5 * sim.Microsecond

// DefaultChannels is the number of blocks a collective kernel occupies,
// modeling NCCL channels.
const DefaultChannels = 8

// Lib is the per-cluster library state: one simulated device per rank.
type Lib struct {
	Cluster *topo.Cluster
	Devs    []*cudasim.Device
	// Net prices every transfer the library's communicators issue:
	// fabric.Unshared, the isolated-path pricing.
	Net   *fabric.Network
	comms int
	// chunks is the staging pool every communicator's connectors share.
	chunks mem.Chunks
	// plans is the registry every communicator's flat plans are shared
	// through.
	plans prim.Plans
}

// New creates the library and one device per GPU in the cluster.
func New(e *sim.Engine, c *topo.Cluster) *Lib {
	l := &Lib{Cluster: c, Net: fabric.Unshared(c)}
	for _, g := range c.GPUs {
		l.Devs = append(l.Devs, cudasim.NewDevice(e, g.Rank, g.Model))
	}
	return l
}

// CommsCreated reports how many communicators were ever constructed.
// NCCL has no communicator pool, so under dynamic-group churn this
// grows with every NewComm — the baseline for DFCCL's flat pooled
// count.
func (l *Lib) CommsCreated() int { return l.comms }

// Device returns the simulated device for a global rank.
func (l *Lib) Device(rank int) *cudasim.Device { return l.Devs[rank] }

// Comm is a communicator over a fixed rank set. As with NCCL, a single
// communicator must not execute two collectives concurrently; issue
// concurrent collectives on separate communicators.
type Comm struct {
	lib   *Lib
	id    int
	Ranks []int
	// wirings holds the connector wiring per algorithm, each built on
	// first use like NCCL's lazy transport setup.
	wirings *prim.Wirings
	// Channels is the block count each collective kernel occupies.
	Channels int
	// calls counts collective invocations, for kernel naming.
	calls int
}

// NewComm creates a communicator over the given global ranks.
func (l *Lib) NewComm(ranks []int) *Comm {
	if len(ranks) == 0 {
		panic("ncclsim: empty communicator")
	}
	l.comms++
	return &Comm{
		lib: l, id: l.comms, Ranks: append([]int(nil), ranks...), Channels: DefaultChannels,
		wirings: prim.NewWirings(&l.chunks, nil, &l.plans, l.Net, fmt.Sprintf("comm%d", l.comms)),
	}
}

// pos returns the ring position of a global rank.
func (c *Comm) pos(rank int) int {
	for i, r := range c.Ranks {
		if r == rank {
			return i
		}
	}
	panic(fmt.Sprintf("ncclsim: rank %d not in communicator %v", rank, c.Ranks))
}

// Launch enqueues the rank's part of a collective on the given stream
// and returns the kernel instance. The host process pays the launch
// overhead. The kernel busy-waits indefinitely (spin budget -1): if the
// application creates circular collective dependency, the simulation
// engine reports a global deadlock, as real NCCL would hang. The spec's
// algorithm must be concrete: an NCCL-style call has no tuning table to
// resolve prim.AlgoAuto against.
func (c *Comm) Launch(p *sim.Process, stream *cudasim.Stream, rank int, spec prim.Spec, sendBuf, recvBuf *mem.Buffer) *cudasim.KernelInstance {
	if len(spec.Ranks) == 0 {
		spec.Ranks = c.Ranks
	}
	x := c.wirings.ExecutorFor(c.lib.Cluster, spec, c.pos(rank), sendBuf, recvBuf)
	c.calls++
	dev := c.lib.Devs[rank]
	k := &cudasim.Kernel{
		Name: fmt.Sprintf("gpu%d/nccl.%v.c%d.%d", rank, spec.Kind, c.id, c.calls),
		Grid: c.Channels,
		Body: func(kc *cudasim.KernelCtx) {
			kc.Sleep(KernelStartup)
			prevStage, prevRound := 0, 0
			for {
				if x.StepOnce(kc.Process, -1) == prim.Done {
					return
				}
				if x.Stage > prevStage || x.Round > prevRound {
					prevStage, prevRound = x.Stage, x.Round
					kc.Sleep(RoundResync)
				}
			}
		},
	}
	return dev.Launch(p, stream, k)
}
