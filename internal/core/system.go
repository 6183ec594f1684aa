package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"

	"dfccl/internal/cudasim"
	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
	"dfccl/internal/tune"
)

// System is a DFCCL deployment across a cluster: one simulated device
// and one RankContext per GPU, a shared registry of collective groups,
// and the communicator pool that owns ring connectors.
type System struct {
	Engine  *sim.Engine
	Cluster *topo.Cluster
	Config  Config
	Devs    []*cudasim.Device

	net    *fabric.Network
	ranks  []*RankContext
	groups map[int]*Group
	pool   *commPool
	// tuning memoizes the parsed auto-tuning table, tune.Default(),
	// across Opens.
	tuning *tune.Table
	// freeTasks is the free list of tasks Close released, linked
	// through collTask.next; a registration takes one before it makes
	// one, so the list holds at most the peak number of registrations.
	freeTasks *collTask

	// autoIDs maps a spec fingerprint to the collective IDs the system
	// has assigned for it (in allocation order); nextAutoID is the next
	// system-assigned ID.
	autoIDs    map[string][]int
	nextAutoID int

	// Always-on lifecycle counters (plain increments on cold paths, in
	// the SYSFLOW spirit of cheap always-on accounting) and the retired
	// stats of dropped executors/rank contexts; both feed Metrics() and
	// the trace-reconciliation totals. See metrics.go.
	kills, revives, aborts, reforms, tunePicks int
	retired                                    retiredStats
}

// AutoCollIDBase is the first system-assigned collective ID; explicit
// IDs (WithCollID) should stay below it.
const AutoCollIDBase = 1 << 20

// NewSystem creates the deployment. Rank contexts are created lazily by
// Init, mirroring dfcclInit. Transfer pricing follows cfg.Network; when
// nil, an Unshared fabric over c prices every transfer independently.
func NewSystem(e *sim.Engine, c *topo.Cluster, cfg Config) *System {
	net := cfg.Network
	if net == nil {
		net = fabric.Unshared(c)
	}
	if cfg.Recorder != nil {
		net.SetRecorder(cfg.Recorder)
	}
	s := &System{
		Engine:     e,
		Cluster:    c,
		Config:     cfg,
		net:        net,
		ranks:      make([]*RankContext, c.Size()),
		groups:     make(map[int]*Group),
		pool:       newCommPool(net),
		autoIDs:    make(map[string][]int),
		nextAutoID: AutoCollIDBase,
	}
	for _, g := range c.GPUs {
		s.Devs = append(s.Devs, cudasim.NewDevice(e, g.Rank, g.Model))
	}
	return s
}

// Network returns the fabric all of the system's communicators price
// transfers on.
func (s *System) Network() *fabric.Network { return s.net }

// Device returns the simulated device for a rank.
func (s *System) Device(rank int) *cudasim.Device { return s.Devs[rank] }

// Group is one registered collective: its spec, priority, the
// communicator allocated from the pool, and per-rank registration state.
type Group struct {
	ID       int
	Spec     prim.Spec
	Priority int
	Grid     int // blocks the collective needs; the daemon grid is the max
	// Job is the owning tenant job ID (0 = untagged). It is part of the
	// group's identity: a collective ID opened under one job can never
	// be re-registered under another, so a tenant's launches can only
	// ever run on its own group's communicator.
	Job  int
	comm *communicator
	// refs counts ranks currently registered; when the last rank
	// unregisters, the group is dropped and its communicator returns to
	// the pool.
	refs int
	// abortErr, when non-nil, marks the group dead: a participating
	// rank was lost mid-run. Daemons observe it through their
	// executors' AbortCheck and resolve every pending run to a CQE the
	// poller translates into this typed error; new launches are
	// rejected with it synchronously.
	abortErr *RankLostError
	// abortCheck is aborted, bound once when the group is created: the
	// abort hook every member's executor shares.
	abortCheck func() bool
}

// aborted reports whether a rank loss has killed this group.
func (g *Group) aborted() bool { return g.abortErr != nil }

// register registers a collective with the system, creating the group
// on first call and validating consistency on subsequent calls from
// other ranks (every participant registers the same collective ID with
// the same spec, as with dfcclRegister*). The spec is valid: Open, its
// one caller, has validated it.
func (s *System) register(spec prim.Spec, collID, priority, grid, job int) (*Group, error) {
	if grid <= 0 {
		grid = DefaultCollectiveGrid
	}
	g, ok := s.groups[collID]
	if ok && g.aborted() && !s.heldLive(g) {
		// Only lost ranks still hold the dead group, and their exiting
		// pollers release it later. Detach it so the ID reopens on fresh
		// wiring, never on the chunks the lost rank left in flight.
		delete(s.groups, collID)
		ok = false
	}
	if ok {
		if g.aborted() {
			return nil, g.abortErr
		}
		if !sameSpec(g.Spec, spec) {
			return nil, fmt.Errorf("core: collective %d re-registered with a different spec", collID)
		}
		if g.Job != job {
			return nil, fmt.Errorf("core: collective %d owned by job %d re-registered by job %d", collID, g.Job, job)
		}
		return g, nil
	}
	for _, rank := range spec.Ranks {
		if rc := s.rankAt(rank); rc != nil && rc.lost {
			return nil, &RankLostError{CollID: collID, Lost: []int{rank}}
		}
	}
	if len(s.groups) >= s.Config.MaxCollectives {
		return nil, fmt.Errorf("core: collective context buffer full (%d collectives)", s.Config.MaxCollectives)
	}
	for _, rc := range s.ranks {
		if rc != nil && !rc.lost && rc.tasks[collID] != nil {
			panic(fmt.Sprintf("core: invariant new-group-unheld: rank %d still holds a task of collective %d as its group is created", rc.Rank, collID))
		}
	}
	g = &Group{
		ID:       collID,
		Spec:     spec,
		Priority: priority,
		Grid:     grid,
		Job:      job,
		comm:     s.pool.acquire(spec.Ranks, collID),
	}
	g.abortCheck = g.aborted
	s.groups[collID] = g
	return g, nil
}

// heldLive reports whether a live rank still holds a registration of g.
func (s *System) heldLive(g *Group) bool {
	for _, rank := range g.Spec.Ranks {
		if rc := s.rankAt(rank); rc != nil && !rc.lost {
			if t := rc.tasks[g.ID]; t != nil && t.group == g {
				return true
			}
		}
	}
	return false
}

// takeTask returns a task for a registration to fill: a retired one
// off the free list, or a new one.
func (s *System) takeTask() *collTask {
	t := s.freeTasks
	if t == nil {
		return &collTask{exec: new(prim.Executor)}
	}
	s.freeTasks, t.next = t.next, nil
	for _, rc := range s.ranks {
		if rc != nil && (rc.tasks[t.group.ID] == t || rc.daemon.t == t) {
			panic(fmt.Sprintf("core: invariant free-task-unreachable: rank %d still reaches a freed task of collective %d", rc.Rank, t.group.ID))
		}
	}
	return t
}

// freeTask puts a released task on the free list. It drops the
// buffers of the task's last launch, so the list pins no user memory.
func (s *System) freeTask(t *collTask) {
	if len(t.runs) != 0 || t.inQueue {
		panic(fmt.Sprintf("core: invariant free-task-idle: collective %d freed with %d launch(es), in queue %v", t.group.ID, len(t.runs), t.inQueue))
	}
	t.exec.SendBuf, t.exec.RecvBuf = nil, nil
	t.next, s.freeTasks = s.freeTasks, t
}

// unregister drops one rank's registration of a group; the last rank
// out releases the communicator back to the pool and, unless register
// has detached the group, frees the collective ID (including its
// auto-ID binding).
func (s *System) unregister(g *Group) {
	g.refs--
	if g.refs > 0 {
		return
	}
	if g.aborted() {
		// The last rank out of a dead group has already observed every
		// pending run resolve (Close refuses outstanding runs), so no
		// daemon is still touching the wiring: scrub the chunks the
		// lost rank left in flight before the pool reuses it.
		g.comm.wirings.DrainConnectors(s.Engine)
	}
	s.pool.release(g.comm)
	if s.groups[g.ID] != g {
		return
	}
	delete(s.groups, g.ID)
	if g.ID < AutoCollIDBase {
		return // autoCollID assigns no ID below the base
	}
	key := g.Spec.Fingerprint()
	ids := s.autoIDs[key]
	for i, id := range ids {
		if id == g.ID {
			s.autoIDs[key] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
}

// autoCollID assigns a deterministic collective ID for a spec opened
// without WithCollID: the first already-assigned ID for this spec that
// the rank does not currently have open, else a fresh ID. Ranks that
// open identical specs in the same per-spec order therefore converge
// on the same IDs without coordination.
func (s *System) autoCollID(r *RankContext, spec prim.Spec) int {
	key := spec.Fingerprint()
	for _, id := range s.autoIDs[key] {
		if _, open := r.tasks[id]; !open {
			return id
		}
	}
	id := s.nextAutoID
	s.nextAutoID++
	s.autoIDs[key] = append(s.autoIDs[key], id)
	return id
}

// resolveAlgo picks the concrete algorithm for a spec opened with
// prim.AlgoAuto, consulting the committed tuning table with the node
// shape the spec's rank set spans.
// The returned note describes the pick for the flight recorder.
func (s *System) resolveAlgo(spec prim.Spec) (prim.Algorithm, string) {
	if s.tuning == nil {
		s.tuning = tune.Default()
	}
	return s.tuning.PickForExplained(s.Cluster, spec)
}

// sameSpec reports whether two specs are interchangeable for
// registration purposes: every field the registration layer enforces,
// including the AllToAllv count matrix (two variable-count collectives
// with different routing must not share a registration).
func sameSpec(a, b prim.Spec) bool {
	if a.Kind != b.Kind || a.Algo != b.Algo || a.Count != b.Count || a.Type != b.Type || a.Op != b.Op || a.Root != b.Root ||
		a.TimingOnly != b.TimingOnly || a.ChunkElems != b.ChunkElems {
		return false
	}
	return slices.Equal(a.Ranks, b.Ranks) && slices.EqualFunc(a.Counts, b.Counts, slices.Equal[[]int])
}

// rankAt returns the rank context if Init has created one, else nil.
func (s *System) rankAt(rank int) *RankContext {
	if rank < 0 || rank >= len(s.ranks) {
		return nil
	}
	return s.ranks[rank]
}

// RankLost reports whether a rank has been killed and not yet revived.
func (s *System) RankLost(rank int) bool {
	rc := s.rankAt(rank)
	return rc != nil && rc.lost
}

// KillRank removes a rank from the deployment mid-run: the elastic-
// membership leave event (spot preemption, hardware fault). It only
// sets flags and broadcasts wakeups — it never touches run queues or
// connectors directly, because the rank's daemon may be cooperatively
// blocked inside a primitive:
//
//   - the rank's context is marked lost (new launches and opens are
//     rejected);
//   - every group the rank participates in is marked aborted with a
//     typed *RankLostError;
//   - every member rank's daemon observes the abort at the executor's
//     next checkpoint (StepOnce entry or connector-wait wakeup),
//     resolves each pending run to a CQE, and the poller delivers the
//     typed error through the run's callback/Future.
//
// The dead rank's own daemon runs the identical abort-drain protocol,
// so its outstanding futures also resolve (with the error) and its
// poller exits cleanly, auto-releasing the rank's registrations.
// Killing an already-lost or never-initialized rank is a no-op;
// KillRank reports whether the kill took effect.
func (s *System) KillRank(rank int) bool {
	rc := s.rankAt(rank)
	if rc == nil || rc.lost {
		return false
	}
	rc.lost = true
	rc.destroyed = true
	s.kills++
	rec := s.Config.Recorder
	if rec != nil {
		rec.RecordMark(trace.Mark{At: s.Engine.Now(), Kind: trace.MarkKill, GPU: rank, Coll: -1})
	}
	e := s.Engine
	// Wakeups are scheduled in sorted collective-ID and ring-position
	// order: the engine breaks same-instant ties by schedule sequence,
	// so the order of these broadcasts is part of the virtual timeline.
	for _, id := range slices.Sorted(maps.Keys(s.groups)) {
		g := s.groups[id]
		if !slices.Contains(g.Spec.Ranks, rank) {
			continue
		}
		if g.abortErr == nil {
			g.abortErr = &RankLostError{CollID: g.ID, Lost: []int{rank}}
			s.aborts++
			if rec != nil {
				rec.RecordMark(trace.Mark{At: s.Engine.Now(), Kind: trace.MarkAbort, GPU: rank, Coll: g.ID, Note: "rank lost"})
			}
		} else {
			g.abortErr.Lost = insertSorted(g.abortErr.Lost, rank)
		}
		// Wake daemons blocked on the group's connectors so the abort
		// is observed immediately instead of after the spin budget.
		g.comm.wirings.WakeAll(e)
		for _, member := range g.Spec.Ranks {
			if mc := s.rankAt(member); mc != nil {
				mc.pollerWake.Broadcast(e)
			}
		}
	}
	rc.pollerWake.Broadcast(e)
	return true
}

// ReviveRank returns a previously killed rank's slot to the
// deployment: the elastic-membership join event. The next Init on the
// rank builds a fresh context (new SQ/CQ, new poller). It refuses to
// revive while the dead rank's abort drain is still in flight, and
// force-releases any registrations its exiting poller has not yet
// dropped.
func (s *System) ReviveRank(rank int) error {
	rc := s.rankAt(rank)
	if rc == nil {
		return nil
	}
	if !rc.lost {
		return fmt.Errorf("core: rank %d is alive; revive needs a killed rank", rank)
	}
	if rc.Outstanding() > 0 {
		return fmt.Errorf("core: rank %d still draining %d aborted run(s)", rank, rc.Outstanding())
	}
	rc.releaseAll()
	s.retireRank(rc)
	s.ranks[rank] = nil
	s.revives++
	if rec := s.Config.Recorder; rec != nil {
		rec.RecordMark(trace.Mark{At: s.Engine.Now(), Kind: trace.MarkRevive, GPU: rank, Coll: -1})
	}
	return nil
}

// insertSorted adds v to an ascending slice, keeping order and
// uniqueness.
func insertSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	if i < len(xs) && xs[i] == v {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// NumRegistered returns the number of registered collectives.
func (s *System) NumRegistered() int { return len(s.groups) }

// CommsCreated reports how many communicators were ever constructed —
// flat under open/close churn when the pool recycles them.
func (s *System) CommsCreated() int { return s.pool.Created() }

// CommsReused reports how many times a registration was served by a
// recycled communicator instead of constructing one.
func (s *System) CommsReused() int { return s.pool.Reused() }

// CommsPooled reports how many released communicators are currently
// available for reuse.
func (s *System) CommsPooled() int { return s.pool.pooled }

// communicator owns the connector wiring for one registered
// collective. The wiring prices every transfer on the system-wide
// fabric, so collectives on different communicators contend with each
// other when it is Shared.
type communicator struct {
	key     string // rankKey of its rank set: the pool's free list it returns to
	wirings *prim.Wirings
	// inUse is set while a live group holds the communicator. The pool
	// hands each one to at most one group at a time, and a group's
	// collective is its only user, so no other collective ever touches
	// a preempted collective's connectors (Sec. 4.5: the daemon
	// "prevents other collectives from using preempted, uncompleted
	// collective's connectors"), and its in-flight chunks survive until
	// it resumes.
	inUse bool
}

type commPool struct {
	net *fabric.Network
	// chunks is the staging pool every communicator's connectors share.
	chunks mem.Chunks
	free   map[string][]*communicator
	// created counts communicators ever built, inUse those a group
	// holds and pooled those on the free lists; created = inUse +
	// pooled always (invariant comms-accounted).
	created, inUse, pooled int
	reused                 int
	// sorted and key are rankKey's scratch, so that an acquire the free
	// list serves allocates nothing.
	sorted []int
	key    []byte
}

func newCommPool(net *fabric.Network) *commPool {
	return &commPool{net: net, free: make(map[string][]*communicator)}
}

// rankKey writes the free-list key of a rank set, its sorted ranks as
// fmt.Sprint prints them ("[0 1 2]"), over the pool's scratch.
func (cp *commPool) rankKey(ranks []int) []byte {
	cp.sorted = append(cp.sorted[:0], ranks...)
	slices.Sort(cp.sorted)
	cp.key = append(cp.key[:0], '[')
	for i, r := range cp.sorted {
		if i > 0 {
			cp.key = append(cp.key, ' ')
		}
		cp.key = strconv.AppendInt(cp.key, int64(r), 10)
	}
	cp.key = append(cp.key, ']')
	return cp.key
}

// acquire returns a communicator over the given ranks, reusing a
// released one with the same rank set when available. A new one's
// wiring is tagged with the collective it is built for.
func (cp *commPool) acquire(ranks []int, collID int) *communicator {
	key := cp.rankKey(ranks)
	var c *communicator
	if frees := cp.free[string(key)]; len(frees) > 0 {
		c = frees[len(frees)-1]
		cp.free[c.key] = frees[:len(frees)-1]
		cp.pooled--
		cp.reused++
	} else {
		c = &communicator{
			key:     string(key),
			wirings: prim.NewWirings(&cp.chunks, cp.net, fmt.Sprintf("coll%d", collID)),
		}
		cp.created++
	}
	cp.account(c, true)
	return c
}

// release returns a communicator to the pool. Its connectors must be
// empty (prim.Wirings.Reset panics otherwise): their chunks come from
// the system-wide staging pool, so a stale one would pin shared memory
// and reach the next owner.
func (cp *commPool) release(c *communicator) {
	c.wirings.Reset()
	cp.free[c.key] = append(cp.free[c.key], c)
	cp.pooled++
	cp.account(c, false)
}

// account moves c into or out of use. It panics if c already was in
// that state — a communicator handed out, or released, twice — or if
// not every communicator ever created is then either in use or pooled.
func (cp *commPool) account(c *communicator, inUse bool) {
	was := c.inUse
	c.inUse = inUse
	if inUse {
		cp.inUse++
	} else {
		cp.inUse--
	}
	if was == inUse || cp.created != cp.inUse+cp.pooled {
		panic(fmt.Sprintf("core: invariant comms-accounted: communicator %s set in use %v twice, or created %d != in use %d + pooled %d",
			c.key, inUse, cp.created, cp.inUse, cp.pooled))
	}
}

// Created reports how many communicators were ever constructed, for
// pool-reuse tests.
func (cp *commPool) Created() int { return cp.created }

// Reused reports how many acquires were served from the free list.
func (cp *commPool) Reused() int { return cp.reused }
