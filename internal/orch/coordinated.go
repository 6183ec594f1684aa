package orch

import (
	"fmt"
	"slices"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// AnnounceCost models a rank's readiness message to the coordinator.
const AnnounceCost = 20 * sim.Microsecond

// Calibrated orchestration costs.
const (
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
	proc        string         // process-name prefix
	announced   map[bufKey]int // runs announced
	changed     *sim.Cond      // announcements changed; the release rule re-checks
	launchersOn []bool         // by rank
	tornDown    []bool         // by rank
}

func newCoordinated(e *sim.Engine, c *topo.Cluster, proc string) coordinated {
	return coordinated{
		NCCL:        newNCCL(e, c, "nccl-"+proc, false),
		proc:        proc,
		announced:   make(map[bufKey]int),
		changed:     sim.NewCond(proc + ".changed"),
		launchersOn: make([]bool, c.Size()),
		tornDown:    make([]bool, c.Size()),
	}
}

// registered refuses a launch of a collective no rank registered.
func (c *coordinated) registered(collID int) error {
	if find(c.colls, collID) == nil {
		return fmt.Errorf("orch: collective %d not registered", collID)
	}
	return nil
}

// announce records one more ready run of collID on rank, starts the
// rank's launcher on its first announcement and wakes the release rule.
func (c *coordinated) announce(p *sim.Process, rank, collID int, launcher func(p *sim.Process, rank int)) {
	c.announced[bufKey{rank, collID}]++
	if !c.launchersOn[rank] {
		c.launchersOn[rank] = true
		p.Spawn(fmt.Sprintf("%s.launcher.%d", c.proc, rank), func(lp *sim.Process) { launcher(lp, rank) })
	}
	c.changed.Broadcast(p.Engine())
}

// launch is a launcher's launch of a released run; it wakes the rank's
// waiters, which wait for the launch before the kernel.
func (c *coordinated) launch(p *sim.Process, rank, collID int) {
	if err := c.NCCL.Launch(p, rank, collID); err != nil {
		panic(err)
	}
	find(c.colls, collID).doneCond.Broadcast(p.Engine())
}

// Wait implements Backend: block until every announced run of collID
// has been launched on rank, then until the kernel completes.
func (c *coordinated) Wait(p *sim.Process, rank, collID int) {
	cs := find(c.colls, collID)
	for cs.launched[rank] < c.announced[bufKey{rank, collID}] {
		cs.doneCond.Wait(p)
	}
	c.NCCL.Wait(p, rank, collID)
}

// WaitAll implements Backend.
func (c *coordinated) WaitAll(p *sim.Process, rank int) {
	for _, cs := range slices.Clone(c.colls) { // as NCCL.WaitAll
		if c.announced[bufKey{rank, cs.id}] > 0 {
			c.Wait(p, rank, cs.id)
		}
	}
}

// Horovod is the dynamic centralized coordination baseline (Sec. 2.5):
// ranks announce tensor readiness to a central coordinator, which each
// cycle broadcasts the list of collectives ready on *all* ranks; ranks
// then launch in the broadcast order. Negotiation delays collective
// launch relative to readiness, which is where its throughput gap in
// Fig. 10 comes from.
type Horovod struct {
	coordinated
	queuedRun  map[int]int   // collID -> runs handed to launchers
	firstSeen  []int         // collIDs in first-announcement order
	launchQ    map[int][]int // rank -> collIDs pending launch
	launchCond *sim.Cond
}

// NewHorovod builds the Horovod-style coordinated backend.
func NewHorovod(e *sim.Engine, c *topo.Cluster) *Horovod {
	return &Horovod{
		coordinated: newCoordinated(e, c, "horovod"),
		queuedRun:   make(map[int]int),
		launchQ:     make(map[int][]int),
		launchCond:  sim.NewCond("horovod.launch"),
	}
}

// Launch implements Backend: announce readiness; the coordinator
// decides when the collective actually starts.
func (h *Horovod) Launch(p *sim.Process, rank, collID int) error {
	if err := h.registered(collID); err != nil {
		return err
	}
	p.Sleep(AnnounceCost)
	if !slices.Contains(h.firstSeen, collID) {
		if len(h.firstSeen) == 0 {
			p.Spawn("horovod.coordinator", h.coordinator) // the first announcement of all
		}
		h.firstSeen = append(h.firstSeen, collID)
	}
	h.announce(p, rank, collID, h.launcher)
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
		for _, collID := range h.firstSeen {
			if released == horovodReleasesPerCycle {
				break
			}
			if h.waveAnnounced(h.queuedRun[collID]) {
				h.queuedRun[collID]++
				for _, r := range find(h.colls, collID).spec.Ranks {
					h.launchQ[r] = append(h.launchQ[r], collID)
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
		for _, r := range c.spec.Ranks {
			if h.announced[bufKey{r, c.id}] <= wave {
				return false
			}
		}
	}
	return true
}

// allTornDown reports whether some rank has torn down and every rank
// with a launcher has.
func (h *Horovod) allTornDown() bool {
	for r, on := range h.launchersOn {
		if on && !h.tornDown[r] {
			return false
		}
	}
	return slices.Contains(h.tornDown, true)
}

// launcher launches coordinator-released collectives in broadcast order.
func (h *Horovod) launcher(p *sim.Process, rank int) {
	for {
		for len(h.launchQ[rank]) == 0 {
			if h.tornDown[rank] {
				return
			}
			h.launchCond.Wait(p)
		}
		collID := h.launchQ[rank][0]
		h.launchQ[rank] = h.launchQ[rank][1:]
		h.launch(p, rank, collID)
	}
}

// Teardown implements Backend.
func (h *Horovod) Teardown(p *sim.Process, rank int) {
	h.tornDown[rank] = true
	h.launchCond.Broadcast(p.Engine())
	h.changed.Broadcast(p.Engine())
}

// KungFu is the negotiated-fixed-order baseline (Sec. 2.5): the
// predominant collective calling order is determined in the initial
// training step via gather/broadcast, after which decentralized
// schedulers enforce that order on every rank. Each enforced launch
// pays a window-synchronization delay, the source of its Fig. 10 gap.
type KungFu struct {
	coordinated
	// order is the adopted collective order (rank 0's first-iteration
	// announcement order).
	order   []int
	nextIdx map[int]int // rank -> position in order (mod len)
}

// NewKungFu builds the KungFu-style backend.
func NewKungFu(e *sim.Engine, c *topo.Cluster) *KungFu {
	return &KungFu{
		coordinated: newCoordinated(e, c, "kungfu"),
		nextIdx:     make(map[int]int),
	}
}

// Launch implements Backend: announce readiness. Rank 0's announcement
// order during the initial step becomes the enforced global order.
func (k *KungFu) Launch(p *sim.Process, rank, collID int) error {
	if err := k.registered(collID); err != nil {
		return err
	}
	if !k.launchersOn[rank] {
		p.Sleep(kungfuNegotiation) // the rank's first announcement adopts the order
	}
	if rank == 0 && k.announced[bufKey{0, collID}] == 0 {
		k.order = append(k.order, collID)
	}
	k.announce(p, rank, collID, k.launcher)
	return nil
}

// launcher enforces the adopted order on one rank: it launches the
// collective at the rank's current order position as soon as the rank
// has announced the whole step's set, paying the enforcement delay.
func (k *KungFu) launcher(p *sim.Process, rank int) {
	for {
		collID, ok := k.nextLaunchable(rank)
		if !ok {
			if k.tornDown[rank] {
				return
			}
			k.changed.Wait(p)
			continue
		}
		p.Sleep(kungfuWindowSync)
		k.launch(p, rank, collID)
		k.nextIdx[rank]++
		k.changed.Broadcast(p.Engine())
	}
}

// nextLaunchable returns the collective at rank's order position if the
// rank has announced its next run, and that of every other collective.
func (k *KungFu) nextLaunchable(rank int) (int, bool) {
	if len(k.order) == 0 {
		return 0, false
	}
	collID := k.order[k.nextIdx[rank]%len(k.order)]
	wave := find(k.colls, collID).launched[rank]
	for _, c := range k.colls {
		if k.announced[bufKey{rank, c.id}] <= wave {
			return 0, false
		}
	}
	return collID, true
}

// Teardown implements Backend.
func (k *KungFu) Teardown(p *sim.Process, rank int) {
	k.tornDown[rank] = true
	k.changed.Broadcast(p.Engine())
}
