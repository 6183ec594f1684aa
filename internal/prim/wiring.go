package prim

import (
	"slices"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// Wiring is the connector wiring of one collective over one rank order:
// every ring position's recv and send endpoints plus the routes that
// price its sends. A flat ring (BuildRingOn) gives each position one
// endpoint each way; the hierarchical fabric (buildHier) gives
// it a full mesh to its same-node peers and, on node leaders, the
// leader ring. Every connector is exactly one position's send endpoint.
type Wiring struct {
	// ranks is the rank ORDER the wiring was built for: positions map
	// to machines through it, so a permuted order needs a new wiring.
	ranks []int
	// grouping is the node grouping of a hierarchical wiring; it has no
	// nodes on a flat ring.
	grouping NodeGrouping
	// tag names the wiring's connectors (edges).
	tag       string
	ins, outs [][]*mem.Connector
	// outRoutes[pos][i] prices sends on outs[pos][i].
	outRoutes [][]fabric.Route
	// net is the fabric the wiring's transfers are priced on.
	net *fabric.Network
	// plan is the plan of the last collective shape the wiring served:
	// every executor of a spec of that shape reads it. A spec of another
	// shape gets another plan, never this one rebuilt, since an executor
	// made for an earlier spec (an earlier launch's) may still be reading
	// it.
	plan *Sequence
}

func newWiring(net *fabric.Network, ranks []int, tag string) *Wiring {
	n := len(ranks)
	return &Wiring{
		ranks:     slices.Clone(ranks),
		tag:       tag,
		ins:       make([][]*mem.Connector, n),
		outs:      make([][]*mem.Connector, n),
		outRoutes: make([][]fabric.Route, n),
		net:       net,
	}
}

// BuildRingOn creates the ring connectors and routes for spec's rank
// order — connector i carries chunks from ring position i to position
// i+1 (mod n) — pricing transfers on net's fabric (net's cluster
// supplies the topology; fabric.Unshared gives independent,
// contention-free pricing). The ring stages its chunks in a pool of its
// own and builds its connectors; a Wirings builds its rings on the pools
// it was given.
func BuildRingOn(net *fabric.Network, spec Spec, tag string) *Wiring {
	return buildRing(new(mem.Chunks), nil, net, spec.Ranks, tag)
}

func buildRing(chunks *mem.Chunks, conns *mem.Conns, net *fabric.Network, ranks []int, tag string) *Wiring {
	n := len(ranks)
	w := newWiring(net, ranks, tag)
	// One-element windows onto shared arrays: building an executor
	// allocates no endpoint slices.
	edges := make([]*mem.Connector, n)
	routes := make([]fabric.Route, n)
	for pos := 0; pos < n; pos++ {
		prev := mod(pos-1, n)
		w.ins[pos] = edges[prev : prev+1 : prev+1]
		w.outs[pos] = edges[pos : pos+1 : pos+1]
		w.outRoutes[pos] = routes[pos : pos+1 : pos+1]
	}
	w.price()
	w.take(chunks, conns)
	return w
}

// buildHier creates the AlgoHierarchical wiring for a rank order: a
// full mesh of SHM connectors between same-node members (so intra-node
// blocks and leader convoys are direct, single-hop transfers) plus one
// ring over the node leaders (the only RDMA wiring), pricing transfers
// on net's fabric, taking its connectors from conns and staging their
// chunks in chunks.
func buildHier(chunks *mem.Chunks, conns *mem.Conns, net *fabric.Network, ranks []int, tag string) *Wiring {
	g := GroupByNode(net.Cluster(), ranks)
	w := newWiring(net, ranks, tag)
	w.grouping = g
	for pos := range ranks {
		sz := len(g.Members[g.NodeOf[pos]]) - 1
		if g.IsLeader(pos) && g.Nodes() > 1 {
			sz++ // leader-ring endpoint at ringIdx
		}
		w.outs[pos] = make([]*mem.Connector, sz)
		w.ins[pos] = make([]*mem.Connector, sz)
		w.outRoutes[pos] = make([]fabric.Route, sz)
	}
	w.price()
	w.take(chunks, conns)
	return w
}

// edge is one connector of a wiring, named kind: position from's send
// endpoint outs[from][out] and position to's recv endpoint ins[to][in].
type edge struct {
	kind              string
	from, to, out, in int
}

// edges yields every edge of the wiring once: on a ring the edge i→i+1;
// on a hierarchical wiring every ordered pair of same-node members, then
// the leader ring's edges.
func (w *Wiring) edges(yield func(edge) bool) {
	g := w.grouping
	if g.Nodes() == 0 {
		for i, n := 0, len(w.ranks); i < n; i++ {
			if !yield(edge{kind: "conn", from: i, to: (i + 1) % n}) {
				return
			}
		}
		return
	}
	for _, members := range g.Members {
		for _, x := range members {
			for _, y := range members {
				if x != y && !yield(edge{kind: "mesh", from: x, to: y, out: g.peerIdx(x, y), in: g.peerIdx(y, x)}) {
					return
				}
			}
		}
	}
	if M := g.Nodes(); M > 1 {
		for a := 0; a < M; a++ {
			la, lb := g.Leader(a), g.Leader((a+1)%M)
			if !yield(edge{kind: "lring", from: la, to: lb, out: g.ringIdx(la), in: g.ringIdx(lb)}) {
				return
			}
		}
	}
}

// price sets the route of every edge.
func (w *Wiring) price() {
	for e := range w.edges {
		w.outRoutes[e.from][e.out] = w.net.RouteBetween(w.ranks[e.from], w.ranks[e.to])
	}
}

// take gives every edge a connector from conns (a new one, if conns is
// nil), staging its chunks in chunks.
func (w *Wiring) take(chunks *mem.Chunks, conns *mem.Conns) {
	for e := range w.edges {
		c := conns.Take(chunks, w.tag, e.kind, w.ranks[e.from], w.ranks[e.to], ConnectorSlots)
		w.outs[e.from][e.out], w.ins[e.to][e.in] = c, c
	}
}

// giveBack puts every edge's connector back in conns, leaving the
// wiring's endpoints empty until take refills them; mem.Conns.Put panics
// on a connector that is not idle.
func (w *Wiring) giveBack(conns *mem.Conns) {
	for e := range w.edges {
		conns.Put(w.outs[e.from][e.out])
		w.outs[e.from][e.out], w.ins[e.to][e.in] = nil, nil
	}
}

// each visits every connector of the wiring once, through the send
// endpoints.
func (w *Wiring) each(visit func(*mem.Connector)) {
	for _, row := range w.outs {
		for _, c := range row {
			visit(c)
		}
	}
}

// WakeAll broadcasts every connector's conditions so executors blocked
// mid-wait re-poll their abort checks.
func (w *Wiring) WakeAll(e *sim.Engine) {
	w.each(func(c *mem.Connector) {
		c.Readable().Broadcast(e)
		c.Writable().Broadcast(e)
	})
}

// DrainConnectors scrubs every connector after an aborted collective,
// discarding in-flight chunks a lost rank left behind and waking any
// writer still blocked on a full connector.
func (w *Wiring) DrainConnectors(e *sim.Engine) {
	w.each(func(c *mem.Connector) { c.Drain(e) })
}

// ExecutorFor builds the executor for ring position pos over the
// wiring's endpoints — running spec's flat-ring plan on a ring, its
// hierarchical plan on a hierarchical fabric — with the cluster's GPU
// compute bandwidth. The executor shares the wiring's endpoint and route
// slices and its plan with the other positions' executors; it must not
// write to them.
func (w *Wiring) ExecutorFor(c *topo.Cluster, spec Spec, pos int, sendBuf, recvBuf *mem.Buffer) *Executor {
	x := new(Executor)
	w.build(x, c, spec, pos, nil)
	x.SendBuf, x.RecvBuf = sendBuf, recvBuf
	return x
}

// build makes x, in place, the executor ExecutorFor makes without
// buffers, reading the wiring's plan, or, if spec has another shape, the
// one plans has, or a new one, which it keeps from then on (it panics on
// an invalid spec, as building a plan does). It keeps what x owns,
// reset: the scratch buffer and the Runner.
func (w *Wiring) build(x *Executor, c *topo.Cluster, spec Spec, pos int, plans *Plans) {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if w.plan == nil || !w.plan.serves(spec, w.grouping) {
		w.plan = plans.swap(w.plan, spec, w.grouping)
	}
	seq := w.plan.has(pos)
	scratch, runner := x.scratch, x.runner
	if runner != nil {
		*runner = Runner{}
	}
	*x = Executor{
		Spec:      spec,
		Pos:       pos,
		Seq:       seq,
		Ins:       w.ins[pos],
		Outs:      w.outs[pos],
		OutRoutes: w.outRoutes[pos],
		Net:       w.net,
		ComputeBW: c.GPUs[spec.Ranks[pos]].Model.CopyBandwidth,
		work:      seq.work(pos),
		runner:    runner,
	}
	x.part, x.role, _ = seq.read(pos)
	if x.work != inScratch || spec.TimingOnly {
		x.scratch = scratch // kept for a later plan; this one never reads it
		return
	}
	// A scratch the init copy overwrites whole is made by that copy, or
	// reused as it is; any other starts cleared, as a new one would.
	whole := seq.ownSeg(pos) == initCopyWhole
	switch workLen := seq.workLen(pos); {
	case scratch != nil && scratch.Reshape(spec.Type, workLen):
		if !whole {
			clear(scratch.Bytes())
		}
		x.scratch = scratch
	case !whole:
		x.scratch = mem.NewBuffer(spec.Type, workLen)
	}
}

// Plans lets the Wirings of one simulation share their plans: a plan is
// a function of its shape and node grouping alone (serves), so every
// wiring that needs one reads the plan any wiring holds. A plan is held
// while a wiring holds it, so Plans holds no more plans than there are
// wirings, and a lookup scans them. The zero value is ready to use.
type Plans struct {
	held []heldPlan
}

// heldPlan is a held plan and the count of wirings holding it.
type heldPlan struct {
	q     *Sequence
	wires int
}

// swap returns the plan for spec over the node grouping g of a wiring
// that held old: the held plan that serves them, or a new one, which it
// holds from then on. A wiring outside a Wirings (ps nil) shares
// nothing: its plans are built for it alone.
func (ps *Plans) swap(old *Sequence, spec Spec, g NodeGrouping) *Sequence {
	if ps == nil {
		return spec.build(g)
	}
	if i := slices.IndexFunc(ps.held, func(h heldPlan) bool { return h.q == old }); i >= 0 {
		if ps.held[i].wires--; ps.held[i].wires == 0 {
			ps.held = slices.Delete(ps.held, i, i+1)
		}
	}
	for i := range ps.held {
		if h := &ps.held[i]; h.q.serves(spec, g) {
			h.wires++
			return h.q
		}
	}
	q := spec.build(g)
	ps.held = append(ps.held, heldPlan{q: q, wires: 1})
	return q
}

// Wirings is a communicator's connector wiring: one Wiring per
// algorithm family, built when a collective first needs it and kept
// across the communicator's pooled lifetimes. A wiring is rebuilt when
// a collective arrives over a different rank ORDER: communicator pools
// match by sorted rank set, and a wiring inherited across a permutation
// would map ring positions to the wrong machines (its per-transport
// wiring and pricing would silently misclassify cross-node traffic as
// SHM).
//
// The connectors are borrowed from a Conns pool: GiveBack returns them
// while the communicator is free, keeping the wirings' endpoint arrays,
// routes and plans, and TakeAgain refills them when it is next used.
type Wirings struct {
	chunks     *mem.Chunks
	conns      *mem.Conns
	plans      *Plans
	net        *fabric.Network
	tag        string
	ring, hier *Wiring
}

// NewWirings returns an empty wiring set whose connectors will stage
// their chunks in chunks, come from conns (nil: be built for the set
// alone), be priced on net and be named <tag>.conn…, <tag>.hier.mesh…
// and <tag>.hier.lring…, and whose plans are shared through plans.
// Every communicator of a simulation passes the same pools and
// registry, so a chunk any of them frees serves the next Write on any
// other, a connector any of them gives back serves any edge of another,
// and a plan any of them holds serves every other collective of its
// shape.
func NewWirings(chunks *mem.Chunks, conns *mem.Conns, plans *Plans, net *fabric.Network, tag string) *Wirings {
	return &Wirings{chunks: chunks, conns: conns, plans: plans, net: net, tag: tag}
}

// ExecutorFor builds the executor for spec's participant at ring
// position pos over the wiring spec's algorithm needs.
func (ws *Wirings) ExecutorFor(c *topo.Cluster, spec Spec, pos int, sendBuf, recvBuf *mem.Buffer) *Executor {
	x := new(Executor)
	ws.Rebuild(x, c, spec, pos)
	x.SendBuf, x.RecvBuf = sendBuf, recvBuf
	return x
}

// Rebuild makes x, in place, the executor ExecutorFor builds without
// buffers, reusing the scratch buffer and Runner x owns. It reads the
// plan ExecutorFor would: the wiring's, if spec has its shape.
// Everything else — buffers, dynamic context, statistics, AbortCheck,
// Rec, RecColl and Job — starts as in a new executor.
func (ws *Wirings) Rebuild(x *Executor, c *topo.Cluster, spec Spec, pos int) {
	ws.wiringFor(spec).build(x, c, spec, pos, ws.plans)
}

// wiringFor returns the wiring spec's algorithm needs over its rank
// order, building it on first use or when the order changed.
func (ws *Wirings) wiringFor(spec Spec) *Wiring {
	slot := &ws.ring
	if spec.Algo == AlgoHierarchical {
		slot = &ws.hier
	}
	if old := *slot; old == nil || !slices.Equal(old.ranks, spec.Ranks) {
		if old != nil && ws.conns != nil {
			old.giveBack(ws.conns)
		}
		if spec.Algo == AlgoHierarchical {
			*slot = buildHier(ws.chunks, ws.conns, ws.net, spec.Ranks, ws.tag+".hier")
		} else {
			*slot = buildRing(ws.chunks, ws.conns, ws.net, spec.Ranks, ws.tag)
		}
		if old != nil {
			(*slot).plan = old.plan // still held: build swaps it if it no longer serves
		}
	}
	return *slot
}

// each visits the wirings built so far.
func (ws *Wirings) each(visit func(*Wiring)) {
	for _, w := range []*Wiring{ws.ring, ws.hier} {
		if w != nil {
			visit(w)
		}
	}
}

// WakeAll is Wiring.WakeAll over every wiring built so far.
func (ws *Wirings) WakeAll(e *sim.Engine) {
	ws.each(func(w *Wiring) { w.WakeAll(e) })
}

// DrainConnectors is Wiring.DrainConnectors over every wiring built so
// far, restoring the pool invariant that a released communicator's
// wiring is empty.
func (ws *Wirings) DrainConnectors(e *sim.Engine) {
	ws.each(func(w *Wiring) { w.DrainConnectors(e) })
}

// Reset checks that every connector built so far is empty and has lost
// no byte (mem.Connector.Reset), as a released communicator's must be:
// a stale chunk would pin pooled memory and reach the next owner.
func (ws *Wirings) Reset() { ws.EachConnector((*mem.Connector).Reset) }

// EachConnector visits every connector the wirings built so far hold,
// once each (none between GiveBack and TakeAgain).
func (ws *Wirings) EachConnector(visit func(*mem.Connector)) {
	ws.each(func(w *Wiring) {
		w.each(func(c *mem.Connector) {
			if c != nil {
				visit(c)
			}
		})
	})
}

// GiveBack puts every connector of the wirings built so far back in the
// pool the set was made with (it must have one), and each must be idle
// (mem.Conns.Put). The set keeps its endpoint arrays, routes and plans;
// TakeAgain refills the endpoints before the next executor is built
// over them.
func (ws *Wirings) GiveBack() {
	ws.each(func(w *Wiring) { w.giveBack(ws.conns) })
}

// TakeAgain gives every edge of the wirings built so far a connector
// from the pool again, named as before.
func (ws *Wirings) TakeAgain() {
	ws.each(func(w *Wiring) { w.take(ws.chunks, ws.conns) })
}
