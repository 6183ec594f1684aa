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
// endpoint each way; the hierarchical fabric (BuildHierFabricOn) gives
// it a full mesh to its same-node peers and, on node leaders, the
// leader ring. Every connector is exactly one position's send endpoint.
type Wiring struct {
	// ranks is the rank ORDER the wiring was built for: positions map
	// to machines through it, so a permuted order needs a new wiring.
	ranks []int
	// grouping is the node grouping of a hierarchical wiring; it has no
	// nodes on a flat ring.
	grouping  NodeGrouping
	ins, outs [][]*mem.Connector
	// outRoutes[pos][i] prices sends on outs[pos][i].
	outRoutes [][]fabric.Route
	// net is the fabric the wiring's transfers are priced on.
	net *fabric.Network
}

func newWiring(net *fabric.Network, ranks []int) *Wiring {
	n := len(ranks)
	return &Wiring{
		ranks:     slices.Clone(ranks),
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
// own; a Wirings builds its rings on the pool it was given.
func BuildRingOn(net *fabric.Network, spec Spec, tag string) *Wiring {
	return buildRing(new(mem.Chunks), net, spec.Ranks, tag)
}

func buildRing(chunks *mem.Chunks, net *fabric.Network, ranks []int, tag string) *Wiring {
	n := len(ranks)
	w := newWiring(net, ranks)
	conns := make([]*mem.Connector, n)
	routes := make([]fabric.Route, n)
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		conns[i] = mem.NewEdgeConnector(chunks, tag, "conn", ranks[i], ranks[next], ConnectorSlots)
		routes[i] = net.RouteBetween(ranks[i], ranks[next])
	}
	// One-element windows onto the shared arrays: building an executor
	// allocates no endpoint slices.
	for pos := 0; pos < n; pos++ {
		prev := mod(pos-1, n)
		w.ins[pos] = conns[prev : prev+1 : prev+1]
		w.outs[pos] = conns[pos : pos+1 : pos+1]
		w.outRoutes[pos] = routes[pos : pos+1 : pos+1]
	}
	return w
}

// BuildHierFabricOn creates the AlgoHierarchical wiring for a rank
// order: a full mesh of SHM connectors between same-node members (so
// intra-node blocks and leader convoys are direct, single-hop
// transfers) plus one ring over the node leaders (the only RDMA
// wiring), pricing transfers on net's fabric and staging chunks in a
// pool of its own like BuildRingOn.
func BuildHierFabricOn(net *fabric.Network, ranks []int, tag string) *Wiring {
	return buildHier(new(mem.Chunks), net, ranks, tag)
}

func buildHier(chunks *mem.Chunks, net *fabric.Network, ranks []int, tag string) *Wiring {
	g := GroupByNode(net.Cluster(), ranks)
	w := newWiring(net, ranks)
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
	for _, members := range g.Members {
		for _, x := range members {
			for _, y := range members {
				if x == y {
					continue
				}
				conn := mem.NewEdgeConnector(chunks, tag, "mesh", ranks[x], ranks[y], ConnectorSlots)
				w.outs[x][g.peerIdx(x, y)] = conn
				w.ins[y][g.peerIdx(y, x)] = conn
				w.outRoutes[x][g.peerIdx(x, y)] = net.RouteBetween(ranks[x], ranks[y])
			}
		}
	}
	if M := g.Nodes(); M > 1 {
		for a := 0; a < M; a++ {
			la, lb := g.Leader(a), g.Leader((a+1)%M)
			conn := mem.NewEdgeConnector(chunks, tag, "lring", ranks[la], ranks[lb], ConnectorSlots)
			w.outs[la][g.ringIdx(la)] = conn
			w.ins[lb][g.ringIdx(lb)] = conn
			w.outRoutes[la][g.ringIdx(la)] = net.RouteBetween(ranks[la], ranks[lb])
		}
	}
	return w
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
// wiring's endpoints — running spec's flat-ring sequence on a ring, its
// hierarchical sequence on a hierarchical fabric — with the cluster's
// GPU compute bandwidth. The executor shares the wiring's endpoint and
// route slices; it must not write to them.
func (w *Wiring) ExecutorFor(c *topo.Cluster, spec Spec, pos int, sendBuf, recvBuf *mem.Buffer) *Executor {
	x := new(Executor)
	w.build(x, c, spec, pos)
	x.SendBuf, x.RecvBuf = sendBuf, recvBuf
	return x
}

// build makes x, in place, the executor ExecutorFor makes without
// buffers. It keeps what x owns, rebuilt: the plan, appended over the
// old plan's arrays, the scratch buffer and the Runner.
func (w *Wiring) build(x *Executor, c *topo.Cluster, spec Spec, pos int) {
	seq, scratch, runner := x.Seq, x.scratch, x.runner
	if seq == nil {
		seq = new(Sequence)
	}
	spec.build(seq, pos, w.grouping)
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
		runner:    runner,
	}
	if !seq.useScratch || spec.TimingOnly {
		x.scratch = scratch // kept for a later plan; this one never reads it
		return
	}
	// A scratch the init copy overwrites whole is made by that copy, or
	// reused as it is; any other starts cleared, as a new one would.
	whole := seq.initCopyOwnSeg == initCopyWhole
	switch {
	case scratch != nil && scratch.Reshape(spec.Type, seq.workLen):
		if !whole {
			clear(scratch.Bytes())
		}
		x.scratch = scratch
	case !whole:
		x.scratch = mem.NewBuffer(spec.Type, seq.workLen)
	}
}

// Wirings is a communicator's connector wiring: one Wiring per
// algorithm family, built when a collective first needs it and kept
// across the communicator's pooled lifetimes. A wiring is rebuilt when
// a collective arrives over a different rank ORDER: communicator pools
// key by sorted rank set, and a wiring inherited across a permutation
// would map ring positions to the wrong machines (its per-transport
// wiring and pricing would silently misclassify cross-node traffic as
// SHM).
type Wirings struct {
	chunks     *mem.Chunks
	net        *fabric.Network
	tag        string
	ring, hier *Wiring
}

// NewWirings returns an empty wiring set whose connectors will stage
// their chunks in chunks, be priced on net and be named <tag>.conn…,
// <tag>.hier.mesh… and <tag>.hier.lring…. Every communicator of a
// simulation passes the same pool, so a chunk any of them frees serves
// the next Write on any other.
func NewWirings(chunks *mem.Chunks, net *fabric.Network, tag string) *Wirings {
	return &Wirings{chunks: chunks, net: net, tag: tag}
}

// ExecutorFor builds the executor for spec's participant at ring
// position pos over the wiring spec's algorithm needs.
func (ws *Wirings) ExecutorFor(c *topo.Cluster, spec Spec, pos int, sendBuf, recvBuf *mem.Buffer) *Executor {
	return ws.wiringFor(spec).ExecutorFor(c, spec, pos, sendBuf, recvBuf)
}

// Rebuild makes x, in place, the executor ExecutorFor builds without
// buffers, reusing the plan storage, scratch buffer and Runner x owns.
// Everything else — buffers, dynamic context, statistics, AbortCheck,
// Rec, RecColl and Job — starts as in a new executor.
func (ws *Wirings) Rebuild(x *Executor, c *topo.Cluster, spec Spec, pos int) {
	ws.wiringFor(spec).build(x, c, spec, pos)
}

// wiringFor returns the wiring spec's algorithm needs over its rank
// order, building it on first use or when the order changed.
func (ws *Wirings) wiringFor(spec Spec) *Wiring {
	slot := &ws.ring
	if spec.Algo == AlgoHierarchical {
		slot = &ws.hier
	}
	if *slot == nil || !slices.Equal((*slot).ranks, spec.Ranks) {
		if spec.Algo == AlgoHierarchical {
			*slot = buildHier(ws.chunks, ws.net, spec.Ranks, ws.tag+".hier")
		} else {
			*slot = buildRing(ws.chunks, ws.net, spec.Ranks, ws.tag)
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
func (ws *Wirings) Reset() {
	ws.each(func(w *Wiring) { w.each((*mem.Connector).Reset) })
}
