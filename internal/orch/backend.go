// Package orch provides the communication backends the training
// harness swaps between: DFCCL, and NCCL driven by the CPU
// orchestration methods of Sec. 2.5 — OneFlow-style static sorting,
// Horovod's dynamic central coordinator and KungFu's negotiated fixed
// order — plus single-stream NCCL, the deadlock baseline of Fig. 1(c).
// All backends expose the same asynchronous collective API so the
// training workloads of Figs. 10-13 are backend-agnostic.
package orch

import (
	"cmp"
	"fmt"
	"slices"

	"dfccl/internal/core"
	"dfccl/internal/mem"
	"dfccl/internal/ncclsim"
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
	// Register declares a collective whose runs on rank use the given
	// buffers, so a workload writes real send data before each Launch
	// and reads real results after Wait. With both buffers nil the runs
	// use synthetic ones sized from the spec (enough for the timing-only
	// training figures). All ranks in spec.Ranks must register the same
	// collID with the same spec.
	Register(p *sim.Process, rank, collID int, spec prim.Spec, priority int, send, recv *mem.Buffer) error
	// Launch asynchronously starts the next run of collID on rank.
	Launch(p *sim.Process, rank, collID int) error
	// Wait blocks until every launched run of collID completed on rank.
	Wait(p *sim.Process, rank, collID int)
	// WaitAll blocks until all launched collectives completed on rank.
	WaitAll(p *sim.Process, rank int)
	// Deregister removes collID's registration from rank, so dynamic
	// groups (MoE expert groups, ZeRO open/close churn) can be released
	// mid-run. All launched runs must have completed (Wait first). When
	// the last registered rank deregisters, the collective's backing
	// resources are freed — for DFCCL, the group's communicator returns
	// to the pool for reuse by groups opened later.
	Deregister(p *sim.Process, rank, collID int) error
	// Teardown releases rank resources; after all ranks tear down the
	// backend quiesces.
	Teardown(p *sim.Process, rank int)
	// CommsCreated reports how many communicators the backend ever built.
	CommsCreated() int
}

// collState tracks one collective's registrations and per-rank runs.
type collState struct {
	id       int
	spec     prim.Spec
	regs     int           // ranks registered; the last Deregister drops the state
	comm     *ncclsim.Comm // NCCL's communicator for the collective
	launched map[int]int   // rank -> runs launched
	done     map[int]int   // rank -> runs completed (DFCCL's callbacks count them)
	doneCond *sim.Cond
}

type bufKey struct{ rank, collID int }
type bufPair struct{ send, recv *mem.Buffer }

// register validates a registration of collID on rank against colls —
// an invalid spec, a rank outside the spec's ranks, a live collective
// ID re-registered under a different spec (Spec.Same compares every
// spec field, including the algorithm and the AllToAllv count matrix),
// or overlapping buffers for a kind that cannot run in place
// (core.BufferOverlapError, which every backend's runs would otherwise
// corrupt) is refused — and returns the collective's
// state with the buffers its runs use: the caller's, or synthetic ones
// sized from the spec if both nil. On the collective's first
// registration the state is new and not yet in colls: the caller adds
// it with commit once its own registration holds.
func register(colls []*collState, rank, collID int, spec prim.Spec, send, recv *mem.Buffer) (*collState, bufPair, error) {
	if err := spec.Validate(); err != nil {
		return nil, bufPair{}, err
	}
	pos := slices.Index(spec.Ranks, rank)
	if pos < 0 {
		return nil, bufPair{}, fmt.Errorf("orch: rank %d not in devSet of collective %d", rank, collID)
	}
	if send == nil && recv == nil {
		sendCount, recvCount := prim.BufferCountsFor(spec, pos)
		if spec.TimingOnly {
			sendCount, recvCount = 0, 0
		}
		send = mem.NewBuffer(spec.Type, sendCount)
		recv = mem.NewBuffer(spec.Type, recvCount)
	}
	if !spec.TimingOnly && !spec.Kind.InPlace() && send != nil && recv != nil && send.Overlaps(recv) {
		return nil, bufPair{}, &core.BufferOverlapError{CollID: collID, Kind: spec.Kind}
	}
	c := find(colls, collID)
	if c == nil {
		c = &collState{
			id:       collID,
			spec:     spec,
			launched: make(map[int]int),
			done:     make(map[int]int),
			doneCond: sim.NewCond("coll.done"),
		}
	} else if !c.spec.Same(spec) {
		return nil, bufPair{}, fmt.Errorf("orch: collective %d re-registered with different spec", collID)
	}
	return c, bufPair{send, recv}, nil
}

// commit counts one rank's registration of c, adding c to colls with
// the first.
func commit(colls *[]*collState, c *collState) {
	if c.regs++; c.regs == 1 {
		i, _ := slices.BinarySearchFunc(*colls, c.id, byID)
		*colls = slices.Insert(*colls, i, c)
	}
}

// deregister drops one rank's registration of collID, and its state
// from colls with the last.
func deregister(colls *[]*collState, collID int) {
	i, _ := slices.BinarySearchFunc(*colls, collID, byID)
	if (*colls)[i].regs--; (*colls)[i].regs == 0 {
		*colls = slices.Delete(*colls, i, i+1)
	}
}

// find returns collID's state in colls (ascending by ID), or nil.
func find(colls []*collState, collID int) *collState {
	if i, ok := slices.BinarySearchFunc(colls, collID, byID); ok {
		return colls[i]
	}
	return nil
}

func byID(c *collState, id int) int { return cmp.Compare(c.id, id) }
