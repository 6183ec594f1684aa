package orch

import (
	"fmt"
	"slices"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// Calibrated orchestration costs.
const (
	// announceCost models a rank's readiness message to Horovod's
	// coordinator.
	announceCost = 20 * sim.Microsecond
	// horovodCycle is the coordinator's negotiation cycle (Horovod's
	// HOROVOD_CYCLE_TIME).
	horovodCycle = 5 * sim.Millisecond
	// horovodReleasesPerCycle caps releases per cycle, modeling the
	// coordinator's serialized negotiation throughput.
	horovodReleasesPerCycle = 1
	// kungfuNegotiation is the one-time gather/broadcast cost of
	// adopting the initial order.
	kungfuNegotiation = 2 * sim.Millisecond
	// kungfuWindowSync is the per-launch decentralized window
	// synchronization cost.
	kungfuWindowSync = 4 * sim.Millisecond
)

// coordinated is the announce-then-launch shell Horovod and KungFu
// share. Launch only announces a run as ready; a per-rank launcher
// process launches it on the NCCL runtime once the orchestrator's
// release rule allows. Both rules are wave-gated: a training step's
// collectives are released only after the whole step's set has been
// announced, which models the loss of compute-communication overlap
// that runtime coordination causes relative to a static plan — the
// dominant term in Horovod's and KungFu's Fig. 10 throughput gap.
type coordinated struct {
	*NCCL
	proc      string     // process-name prefix
	changed   *sim.Cond  // announcements changed; the release rule re-checks
	launchers []launcher // by rank
	// order is the collectives in the order the release rule walks them;
	// the last rank's Deregister drops a collective from it.
	order []*collState
}

// launcher is one rank's launcher process.
type launcher struct {
	on, tornDown bool
	queue        []*collState // Horovod: released runs, in broadcast order
	next         int          // KungFu: the rank's position in the order
}

func newCoordinated(e *sim.Engine, c *topo.Cluster, proc string) coordinated {
	return coordinated{
		NCCL:      newNCCL(e, c, "nccl-"+proc, false),
		proc:      proc,
		changed:   sim.NewCond(proc + ".changed"),
		launchers: make([]launcher, c.Size()),
	}
}

// announce records one more ready run of m on rank, starts the rank's
// launcher on its first announcement and wakes the release rule.
func (c *coordinated) announce(p *sim.Process, rank int, m *member, loop func(p *sim.Process, rank int)) {
	m.announced++
	if l := &c.launchers[rank]; !l.on {
		l.on = true
		p.Spawn(fmt.Sprintf("%s.launcher.%d", c.proc, rank), func(lp *sim.Process) { loop(lp, rank) })
	}
	c.changed.Broadcast(p.Engine())
}

// Deregister implements Backend; the last rank's also drops the
// collective from the release order.
func (c *coordinated) Deregister(p *sim.Process, rank, collID int) error {
	if err := c.NCCL.Deregister(p, rank, collID); err != nil {
		return err
	}
	c.order = slices.DeleteFunc(c.order, func(cs *collState) bool { return cs.regs == 0 })
	return nil
}

// Horovod is the dynamic centralized coordination baseline (Sec. 2.5):
// ranks announce tensor readiness to a central coordinator, which each
// cycle broadcasts the list of collectives ready on *all* ranks; ranks
// then launch in the broadcast order. Negotiation delays collective
// launch relative to readiness, which is where its throughput gap in
// Fig. 10 comes from. Its release order is first-announcement order.
type Horovod struct {
	coordinated
	launchCond *sim.Cond // runs released
}

// NewHorovod builds the Horovod-style coordinated backend.
func NewHorovod(e *sim.Engine, c *topo.Cluster) *Horovod {
	return &Horovod{coordinated: newCoordinated(e, c, "horovod"), launchCond: sim.NewCond("horovod.launch")}
}

// Launch implements Backend: announce readiness; the coordinator
// decides when the collective actually starts.
func (h *Horovod) Launch(p *sim.Process, rank, collID int) error {
	c, m, err := h.lookup(rank, collID)
	if err != nil {
		return err
	}
	p.Sleep(announceCost)
	if !slices.ContainsFunc(h.launchers, func(l launcher) bool { return l.on }) {
		p.Spawn("horovod.coordinator", h.coordinator) // the first announcement of all
	}
	if !slices.Contains(h.order, c) {
		h.order = append(h.order, c)
	}
	h.announce(p, rank, m, h.launchLoop)
	return nil
}

// coordinator is the central negotiation loop: each cycle it releases,
// in first-announcement order, up to horovodReleasesPerCycle collectives
// whose next run every rank has announced along with the rest of the
// step; with nothing to release it sleeps until announcements change.
func (h *Horovod) coordinator(p *sim.Process) {
	for !h.allTornDown() {
		p.Sleep(horovodCycle)
		released := 0
		for _, c := range h.order {
			if released == horovodReleasesPerCycle {
				break
			}
			if h.waveAnnounced(c.released) {
				c.released++
				for _, r := range c.spec.Ranks {
					h.launchers[r].queue = append(h.launchers[r].queue, c)
				}
				h.launchCond.Broadcast(p.Engine())
				released++
			}
		}
		if released == 0 {
			if h.allTornDown() {
				return
			}
			h.changed.Wait(p)
		}
	}
}

// waveAnnounced reports whether every registered collective has been
// announced at least wave+1 times on each of its ranks — the whole
// training step's negotiation has arrived.
func (h *Horovod) waveAnnounced(wave int) bool {
	for _, c := range h.colls {
		for i := range c.members {
			if c.members[i].announced <= wave {
				return false
			}
		}
	}
	return true
}

// allTornDown reports whether some rank has torn down and every rank
// with a launcher has.
func (h *Horovod) allTornDown() bool {
	some := false
	for _, l := range h.launchers {
		if l.on && !l.tornDown {
			return false
		}
		some = some || l.tornDown
	}
	return some
}

// launchLoop is rank's launcher: it launches coordinator-released
// collectives in broadcast order.
func (h *Horovod) launchLoop(p *sim.Process, rank int) {
	l := &h.launchers[rank]
	for {
		for len(l.queue) == 0 {
			if l.tornDown {
				return
			}
			h.launchCond.Wait(p)
		}
		c := l.queue[0]
		l.queue = l.queue[1:]
		h.start(p, rank, c, c.member(rank))
	}
}

// Teardown implements Backend.
func (h *Horovod) Teardown(p *sim.Process, rank int) {
	h.launchers[rank].tornDown = true
	h.launchCond.Broadcast(p.Engine())
	h.changed.Broadcast(p.Engine())
}

// KungFu is the negotiated-fixed-order baseline (Sec. 2.5): the
// predominant collective calling order is determined in the initial
// training step via gather/broadcast, after which decentralized
// schedulers enforce that order on every rank. Each enforced launch
// pays a window-synchronization delay, the source of its Fig. 10 gap.
// The adopted order is rank 0's first-announcement order, and each rank
// follows it less the collectives the rank is not in. Non-claim: a
// collective rank 0 is not in never enters the order, so KungFu never
// launches it.
type KungFu struct {
	coordinated
}

// NewKungFu builds the KungFu-style backend.
func NewKungFu(e *sim.Engine, c *topo.Cluster) *KungFu {
	return &KungFu{coordinated: newCoordinated(e, c, "kungfu")}
}

// Launch implements Backend: announce readiness. Rank 0's announcement
// order during the initial step becomes the enforced global order.
func (k *KungFu) Launch(p *sim.Process, rank, collID int) error {
	c, m, err := k.lookup(rank, collID)
	if err != nil {
		return err
	}
	if !k.launchers[rank].on {
		p.Sleep(kungfuNegotiation) // the rank's first announcement adopts the order
	}
	if rank == 0 && !slices.Contains(k.order, c) {
		k.order = append(k.order, c)
	}
	k.announce(p, rank, m, k.launchLoop)
	return nil
}

// launchLoop is rank's launcher, enforcing the adopted order: it
// launches the collective at the rank's order position as soon as the
// rank has announced the whole step's set, paying the enforcement
// delay.
func (k *KungFu) launchLoop(p *sim.Process, rank int) {
	l := &k.launchers[rank]
	for {
		c := k.nextLaunchable(rank)
		if c == nil {
			if l.tornDown {
				return
			}
			k.changed.Wait(p)
			continue
		}
		p.Sleep(kungfuWindowSync)
		k.start(p, rank, c, c.member(rank))
		l.next++
		k.changed.Broadcast(p.Engine())
	}
}

// nextLaunchable moves rank's order position past collectives the rank
// is not in and returns the collective there if the rank has announced
// its next run, and that of every other collective it is in; else nil.
func (k *KungFu) nextLaunchable(rank int) *collState {
	l := &k.launchers[rank]
	for range k.order {
		c := k.order[l.next%len(k.order)]
		m := c.member(rank)
		if m == nil {
			l.next++
			continue
		}
		for _, o := range k.colls {
			if om := o.member(rank); om != nil && om.announced <= m.launched {
				return nil
			}
		}
		return c
	}
	return nil
}

// Teardown implements Backend.
func (k *KungFu) Teardown(p *sim.Process, rank int) {
	k.launchers[rank].tornDown = true
	k.changed.Broadcast(p.Engine())
}
