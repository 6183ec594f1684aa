package orch

import (
	"fmt"

	"dfccl/internal/core"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// DFCCL is the backend built on the paper's library: collectives are
// opened once as typed handles and invoked asynchronously through the
// SQ; the daemon kernel schedules and preempts them, so no CPU
// orchestration of launch order is needed — ranks may launch in any
// order.
type DFCCL struct {
	// Sys is the underlying deployment, for the rank contexts' statistics
	// (Fig. 11 instrumentation).
	Sys     *core.System
	colls   []*collState
	handles map[bufKey]*core.Collective
	bufs    map[bufKey]bufPair
}

// NewDFCCL builds a DFCCL backend over a cluster.
func NewDFCCL(e *sim.Engine, c *topo.Cluster, cfg core.Config) *DFCCL {
	return &DFCCL{
		Sys:     core.NewSystem(e, c, cfg),
		handles: make(map[bufKey]*core.Collective),
		bufs:    make(map[bufKey]bufPair),
	}
}

// Name implements Backend.
func (d *DFCCL) Name() string { return "dfccl" }

// Register implements Backend: Open by explicit collective ID, keeping
// the per-rank handle for Launch and Close.
func (d *DFCCL) Register(p *sim.Process, rank, collID int, spec prim.Spec, priority int, send, recv *mem.Buffer) error {
	c, bufs, err := register(d.colls, rank, collID, spec, send, recv)
	if err != nil {
		return err
	}
	h, err := d.Sys.Init(p, rank).Open(spec, core.WithCollID(collID), core.WithPriority(priority))
	if err != nil {
		return err
	}
	commit(&d.colls, c) // Open refuses a second registration on the rank
	d.handles[bufKey{rank, collID}] = h
	d.bufs[bufKey{rank, collID}] = bufs
	return nil
}

// Deregister implements Backend: Close the rank's handle. When the last
// participating rank deregisters, the group's communicator returns to
// the system's pool for reuse by later dynamic groups.
func (d *DFCCL) Deregister(p *sim.Process, rank, collID int) error {
	key := bufKey{rank, collID}
	h := d.handles[key]
	if h == nil {
		return fmt.Errorf("orch: collective %d not registered on rank %d", collID, rank)
	}
	if err := h.Close(p); err != nil {
		return err
	}
	delete(d.handles, key)
	delete(d.bufs, key)
	deregister(&d.colls, collID)
	return nil
}

// Launch implements Backend: an asynchronous handle launch with a
// completion callback.
func (d *DFCCL) Launch(p *sim.Process, rank, collID int) error {
	c := find(d.colls, collID)
	if c == nil {
		return fmt.Errorf("orch: collective %d not registered", collID)
	}
	h := d.handles[bufKey{rank, collID}]
	if h == nil {
		return fmt.Errorf("orch: collective %d not registered on rank %d", collID, rank)
	}
	bufs := d.bufs[bufKey{rank, collID}]
	c.launched[rank]++
	e := p.Engine()
	return h.LaunchCB(p, bufs.send, bufs.recv, func(error) {
		c.done[rank]++
		c.doneCond.Broadcast(e)
	})
}

// Wait implements Backend.
func (d *DFCCL) Wait(p *sim.Process, rank, collID int) {
	if c := find(d.colls, collID); c != nil {
		for c.done[rank] < c.launched[rank] {
			c.doneCond.Wait(p)
		}
	}
}

// WaitAll implements Backend.
func (d *DFCCL) WaitAll(p *sim.Process, rank int) {
	d.Sys.Init(p, rank).WaitAll(p)
}

// Teardown implements Backend.
func (d *DFCCL) Teardown(p *sim.Process, rank int) {
	d.Sys.Init(p, rank).Destroy(p)
}

// CommsCreated implements Backend: communicators the system's pool ever
// built, flat under open/close churn because the pool recycles them.
func (d *DFCCL) CommsCreated() int { return d.Sys.CommsCreated() }
