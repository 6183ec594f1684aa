// Package orch provides the communication backends the training
// harness swaps between: DFCCL, and NCCL driven by the CPU
// orchestration methods of Sec. 2.5 — OneFlow-style static sorting,
// Horovod's dynamic central coordinator, KungFu's negotiated fixed
// order, and BytePS-style intra-node coordination. All backends expose
// the same asynchronous collective API so the training workloads of
// Figs. 10-13 are backend-agnostic.
package orch

import (
	"fmt"

	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
)

// Backend is the training-facing collective API. Collectives are
// registered once per rank and launched repeatedly; Launch is
// asynchronous and runs of one collective serialize. The spec carries
// the full collective identity, including the primitive-sequence
// algorithm (prim.Spec.Algo): every backend routes AlgoHierarchical
// all-to-alls through the topology-aware hierarchical executors, and
// re-registering a live collective ID under a different algorithm is
// refused like any other spec mismatch.
type Backend interface {
	Name() string
	// Register declares a collective. All ranks in spec.Ranks must
	// register the same collID with the same spec.
	Register(p *sim.Process, rank, collID int, spec prim.Spec, priority int) error
	// Launch asynchronously starts the next run of collID on rank.
	Launch(p *sim.Process, rank, collID int) error
	// Wait blocks until every launched run of collID completed on rank.
	Wait(p *sim.Process, rank, collID int)
	// WaitAll blocks until all launched collectives completed on rank.
	WaitAll(p *sim.Process, rank int)
	// Teardown releases rank resources; after all ranks tear down the
	// backend quiesces.
	Teardown(p *sim.Process, rank int)
}

// DataBackend is the optional extension for workloads that assert
// numeric correctness: RegisterData binds a collective to caller-owned
// buffers, so the workload writes real send data before each Launch
// and reads real results after Wait. Backend.Register instead
// allocates synthetic buffers sized from the spec (sufficient for the
// timing-only training figures).
type DataBackend interface {
	Backend
	// RegisterData declares a collective whose runs use the given
	// caller-owned buffers on this rank.
	RegisterData(p *sim.Process, rank, collID int, spec prim.Spec, priority int, send, recv *mem.Buffer) error
}

// DynamicBackend is the optional extension for workloads with dynamic
// collective groups (MoE expert groups, ZeRO open/close churn):
// Deregister releases a collective mid-run so its resources — for
// DFCCL, the group's pooled communicator — can be reused by groups
// opened later.
type DynamicBackend interface {
	Backend
	// Deregister removes collID's registration from rank. All launched
	// runs must have completed (Wait first). When the last registered
	// rank deregisters, the collective's backing resources are freed.
	Deregister(p *sim.Process, rank, collID int) error
}

// collState tracks one collective's per-rank launch/completion counts.
type collState struct {
	spec     prim.Spec
	priority int
	launched map[int]int // rank -> runs launched
	done     map[int]int // rank -> runs completed
	doneCond *sim.Cond
}

func newCollState(spec prim.Spec, priority int) *collState {
	return &collState{
		spec:     spec,
		priority: priority,
		launched: make(map[int]int),
		done:     make(map[int]int),
		doneCond: sim.NewCond("coll.done"),
	}
}

// waitRank blocks until completions catch launches for rank.
func (c *collState) waitRank(p *sim.Process, rank int) {
	for c.done[rank] < c.launched[rank] {
		c.doneCond.Wait(p)
	}
}

// validateRegister rejects invalid specs and re-registrations of a live
// collective ID under a different spec (fingerprint inequality covers
// every spec field, including the AllToAllv count matrix).
func validateRegister(colls map[int]*collState, collID int, spec prim.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if existing, ok := colls[collID]; ok {
		if existing.spec.Fingerprint() != spec.Fingerprint() {
			return fmt.Errorf("orch: collective %d re-registered with different spec", collID)
		}
	}
	return nil
}

// posOf returns rank's ring position within spec.Ranks, or -1.
func posOf(spec prim.Spec, rank int) int {
	for i, r := range spec.Ranks {
		if r == rank {
			return i
		}
	}
	return -1
}
