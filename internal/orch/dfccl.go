package orch

import (
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
	Sys *core.System
	registry
}

// NewDFCCL builds a DFCCL backend over a cluster.
func NewDFCCL(e *sim.Engine, c *topo.Cluster, cfg core.Config) *DFCCL {
	return &DFCCL{Sys: core.NewSystem(e, c, cfg)}
}

// Name implements Backend.
func (d *DFCCL) Name() string { return "dfccl" }

// Register implements Backend: Open by explicit collective ID, keeping
// the per-rank handle for Launch and Close.
func (d *DFCCL) Register(p *sim.Process, rank, collID int, spec prim.Spec, priority int, send, recv *mem.Buffer) error {
	c, m, err := d.register(rank, collID, spec, send, recv)
	if err != nil {
		return err
	}
	if m.handle, err = d.Sys.Init(p, rank).Open(spec, core.WithCollID(collID), core.WithPriority(priority)); err != nil {
		return err
	}
	d.commit(c, m)
	return nil
}

// Deregister implements Backend: Close the rank's handle. When the last
// participating rank deregisters, the group's communicator returns to
// the system's pool for reuse by later dynamic groups.
func (d *DFCCL) Deregister(p *sim.Process, rank, collID int) error {
	c, m, err := d.lookup(rank, collID)
	if err != nil {
		return err
	}
	if err := m.handle.Close(p); err != nil {
		return err
	}
	d.deregister(c, m)
	return nil
}

// Launch implements Backend: an asynchronous handle launch with a
// completion callback.
func (d *DFCCL) Launch(p *sim.Process, rank, collID int) error {
	c, m, err := d.lookup(rank, collID)
	if err != nil {
		return err
	}
	m.launched++
	e := p.Engine()
	return m.handle.LaunchCB(p, m.send, m.recv, func(error) {
		m.done++
		c.doneCond.Broadcast(e)
	})
}

// Wait implements Backend.
func (d *DFCCL) Wait(p *sim.Process, rank, collID int) {
	if c, m, err := d.lookup(rank, collID); err == nil {
		for m.done < m.launched {
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
