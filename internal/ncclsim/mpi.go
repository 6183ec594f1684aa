package ncclsim

import (
	"fmt"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// CUDA-aware-MPI baseline for the Sec. 2.1 comparison: collectives are
// staged through host memory over PCIe and executed by CPU ranks with
// higher per-message latency and no chunk pipelining. NCCL's on-GPU ring
// overtakes it beyond ~32 KB, by up to ~6.7× — the observation that
// motivates NCCL's (deadlock-prone) on-GPU control plane.

// MPI staging and messaging parameters.
const (
	mpiPCIeBandwidth = 10e9                 // bytes/sec device<->host staging
	mpiMsgLatency    = 18 * sim.Microsecond // per-message software latency
	mpiBandwidth     = 5.0e9                // effective inter-rank bandwidth
)

// MPIAllReduce runs a host-staged, non-pipelined ring all-reduce over
// the given ranks, returning the completion time of the whole operation.
// Data is actually moved and reduced, like the GPU path.
func MPIAllReduce(e *sim.Engine, c *topo.Cluster, ranks []int, count int, t mem.DataType, op mem.ReduceOp, sendBufs, recvBufs []*mem.Buffer) (sim.Time, error) {
	n := len(ranks)
	spec := prim.Spec{
		Kind: prim.AllReduce, Count: count, Type: t, Op: op, Ranks: ranks,
		// Whole-segment chunks: no pipelining within a segment.
		ChunkElems: count/n + 1,
	}
	ring := prim.BuildRingOn(fabric.Unshared(c), spec, "mpi")
	bytes := count * t.Size()
	for i := 0; i < n; i++ {
		x := ring.ExecutorFor(c, spec, i, sendBufs[i], recvBufs[i])
		// Override path pricing with MPI's software messaging costs.
		x.OutRoutes = []fabric.Route{{Path: topo.Path{Transport: topo.TransportSHM, Bandwidth: mpiBandwidth, Latency: int64(mpiMsgLatency)}}}
		x.ComputeBW = 30e9 // CPU-side reduction bandwidth
		e.Spawn(fmt.Sprintf("mpi-rank%d", ranks[i]), func(p *sim.Process) {
			// Stage device -> host.
			p.Sleep(sim.Duration(float64(bytes) / mpiPCIeBandwidth * 1e9))
			for x.StepOnce(p, -1) != prim.Done {
			}
			// Stage host -> device.
			p.Sleep(sim.Duration(float64(bytes) / mpiPCIeBandwidth * 1e9))
		})
	}
	err := e.Run()
	return e.Now(), err
}
