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
	"dfccl/internal/cudasim"
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

// collState is one registered collective: its spec, and one record
// per member rank in spec.Ranks order. Everything a backend knows
// about the collective lives here, so it goes when the last rank
// deregisters.
type collState struct {
	id       int
	spec     prim.Spec
	regs     int           // ranks registered; the last Deregister drops the state
	comm     *ncclsim.Comm // NCCL's communicator for the collective
	released int           // Horovod: runs the coordinator released
	members  []member      // by position in spec.Ranks
	doneCond *sim.Cond
}

// member is one rank's registration of a collective. Deregister only
// turns it off: a rank that registers again while the collective lives
// on its peers keeps counting runs, since its runs pair with theirs by
// count.
type member struct {
	on         bool // registered
	send, recv *mem.Buffer
	// announced counts runs the rank asked for, launched those started
	// on the runtime, done those DFCCL's callbacks completed.
	announced, launched, done int
	handle                    *core.Collective        // DFCCL's
	stream                    *cudasim.Stream         // NCCL's
	kern                      *cudasim.KernelInstance // NCCL's most recent launch
}

// member returns rank's record, or nil if rank is not in the spec.
func (c *collState) member(rank int) *member {
	if pos := slices.Index(c.spec.Ranks, rank); pos >= 0 {
		return &c.members[pos]
	}
	return nil
}

// registry holds the registered collectives, ascending by ID.
type registry struct{ colls []*collState }

// register validates a registration of collID on rank — an invalid
// spec, a rank outside the spec's ranks, a live collective ID
// re-registered under a different spec (Spec.Same compares every spec
// field, including the algorithm and the AllToAllv count matrix), a
// second registration on the rank, or overlapping buffers for a kind
// that cannot run in place (core.BufferOverlapError, which every
// backend's runs would otherwise corrupt) is refused — and returns the
// collective's state and the rank's record holding the buffers its runs
// use: the caller's, or synthetic ones sized from the spec if both nil.
// The record stays off, and a new state out of the registry, until the
// caller commits them once the rest of its registration holds.
func (g *registry) register(rank, collID int, spec prim.Spec, send, recv *mem.Buffer) (*collState, *member, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	pos := slices.Index(spec.Ranks, rank)
	if pos < 0 {
		return nil, nil, fmt.Errorf("orch: rank %d not in devSet of collective %d", rank, collID)
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
		return nil, nil, &core.BufferOverlapError{CollID: collID, Kind: spec.Kind}
	}
	c := g.find(collID)
	switch {
	case c == nil:
		c = &collState{id: collID, spec: spec, members: make([]member, len(spec.Ranks)), doneCond: sim.NewCond("coll.done")}
	case !c.spec.Same(spec):
		return nil, nil, fmt.Errorf("orch: collective %d re-registered with different spec", collID)
	case c.members[pos].on:
		return nil, nil, fmt.Errorf("orch: collective %d already registered on rank %d", collID, rank)
	}
	m := &c.members[pos]
	m.send, m.recv = send, recv
	return c, m, nil
}

// commit turns m, a record of c, on, adding c to the registry with the
// first.
func (g *registry) commit(c *collState, m *member) {
	m.on = true
	if c.regs++; c.regs == 1 {
		i, _ := slices.BinarySearchFunc(g.colls, c.id, byID)
		g.colls = slices.Insert(g.colls, i, c)
	}
}

// deregister turns m, a record of c, off, dropping c with the last.
func (g *registry) deregister(c *collState, m *member) {
	m.on = false
	if c.regs--; c.regs == 0 {
		i, _ := slices.BinarySearchFunc(g.colls, c.id, byID)
		g.colls = slices.Delete(g.colls, i, i+1)
	}
}

// lookup returns collID's state and rank's record, or the error a
// launch or deregistration of a collective not registered there gets.
func (g *registry) lookup(rank, collID int) (*collState, *member, error) {
	c := g.find(collID)
	if c == nil {
		return nil, nil, fmt.Errorf("orch: collective %d not registered", collID)
	}
	if m := c.member(rank); m != nil && m.on {
		return c, m, nil
	}
	return nil, nil, fmt.Errorf("orch: collective %d not registered on rank %d", collID, rank)
}

// find returns collID's state, or nil.
func (g *registry) find(collID int) *collState {
	if i, ok := slices.BinarySearchFunc(g.colls, collID, byID); ok {
		return g.colls[i]
	}
	return nil
}

func byID(c *collState, id int) int { return cmp.Compare(c.id, id) }
