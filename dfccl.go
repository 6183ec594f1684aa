// Package dfccl is a Go reproduction of DFCCL ("Comprehensive Deadlock
// Prevention for GPU Collective Communication", EuroSys 2025): a GPU
// collective communication library that prevents deadlocks by
// preempting collectives inside an on-GPU daemon kernel, while keeping
// NCCL-class performance through adaptive decentralized gang-scheduling.
//
// The hardware layer is a deterministic discrete-event simulation of a
// GPU cluster (CUDA-like devices, SHM/RDMA fabric); see DESIGN.md for
// the substitution argument and the v2 API overview. The public API is
// built around typed collective handles and awaitable futures:
//
//	lib := dfccl.New(dfccl.Server3090(8))
//	lib.Go("rank0", func(p *dfccl.Process) {
//	    ctx := lib.Init(p, 0)                                  // dfcclInit
//	    coll, _ := ctx.Open(                                   // register once...
//	        dfccl.AllReduce(n, dfccl.Float32, dfccl.Sum, 0, 1, 2, 3),
//	        dfccl.WithPriority(1))
//	    fut, _ := coll.Launch(p, send, recv)                   // ...invoke repeatedly
//	    _ = fut.Wait(p)                                        // completion + core-exec time
//	    _ = coll.Close(p)                                      // unregister; communicator
//	    ctx.Destroy(p)                                         // returns to the pool
//	})
//	lib.Run()
//
// Invocation is asynchronous; completion is delivered through futures
// (Launch) or callbacks (LaunchCB). Batch submits several collectives
// and returns a joined future. Ranks may invoke collectives in any
// order — circular collective dependency that would deadlock NCCL is
// resolved by preemption.
//
// The paper's Listing 1 shape — dfcclRegister* under an integer
// collective ID, dfcclRun* with a completion callback — is Open with
// WithCollID plus LaunchCB on the returned handle.
package dfccl

import (
	"dfccl/internal/core"
	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// Re-exported simulation types. Host code runs as simulated processes
// on a virtual clock.
type (
	// Process is a simulated host thread.
	Process = sim.Process
	// Duration is virtual time in nanoseconds.
	Duration = sim.Duration
	// Cluster describes the simulated GPU cluster.
	Cluster = topo.Cluster
	// Buffer is a typed device/host memory region.
	Buffer = mem.Buffer
	// DataType is a collective element type.
	DataType = mem.DataType
	// ReduceOp is a reduction operator.
	ReduceOp = mem.ReduceOp
	// Config carries DFCCL tunables (CQ variant, stickiness policy...).
	Config = core.Config
	// RankContext is the per-GPU context (dfcclInit's rankCtx).
	RankContext = core.RankContext
	// TraceRecorder is the flight recorder: assigned to Config.Recorder
	// it records daemon scheduling events, executor spans, sends, fabric
	// flows and membership marks, and exports Chrome trace JSON
	// (WriteChromeTrace).
	TraceRecorder = trace.Recorder

	// Spec describes one collective operation; build one with the
	// AllReduce/AllGather/ReduceScatter/Broadcast/Reduce/AllToAll/
	// AllToAllv constructors and pass it to (*RankContext).Open.
	Spec = prim.Spec
	// Collective is a typed handle to one registered collective on one
	// rank: Launch/LaunchCB to invoke, Stats to observe, Close to
	// unregister and recycle its communicator.
	Collective = core.Collective
	// Future is the awaitable result of Launch or Batch: Wait blocks
	// the simulated process until completion and CoreExecTime reports
	// the run's on-GPU execution time.
	Future = core.Future
	// CollectiveStats are per-handle scheduling statistics.
	CollectiveStats = core.CollectiveStats
	// OpenOption configures Open (WithPriority, WithCollID, WithGrid,
	// WithJob).
	OpenOption = core.OpenOption
	// BatchItem is one launch in a Batch.
	BatchItem = core.BatchItem
	// Algorithm selects the primitive-sequence algorithm of a
	// collective through Spec.Algo: AlgoRing (default),
	// AlgoHierarchical for the topology-aware kinds, or AlgoAuto to
	// defer the choice to the tuning table at Open time. All ranks must
	// open the same algorithm; unknown algorithms are rejected at Open.
	Algorithm = prim.Algorithm
	// TransportBytes is a per-transport (local / SHM / RDMA) split of
	// the wire traffic a collective's executor sent, reported through
	// CollectiveStats.
	TransportBytes = prim.TransportBytes
	// RankLostError is the typed failure delivered through futures and
	// callbacks when a participating rank is killed mid-run; it carries
	// the collective ID and the departed ranks, and matches
	// errors.Is(err, ErrRankLost). Recover with (*Collective).Reform.
	RankLostError = core.RankLostError
	// RankRangeError is the typed refusal of an Open whose spec names a
	// rank outside the cluster; nothing is registered.
	RankRangeError = core.RankRangeError
	// BufferOverlapError is the typed refusal of an all-to-all(v) launch
	// whose send and recv buffers overlap: it writes final blocks into
	// recv while it still sends own blocks from send.
	BufferOverlapError = core.BufferOverlapError

	// FabricNetwork prices the deployment's transfers: assign one to
	// Config.Network. UnsharedFabric gives the legacy isolated-path
	// model (the default); SharedFabric makes concurrent transfers
	// contend max-min fairly for per-tier link capacity.
	FabricNetwork = fabric.Network
	// FabricConfig shapes a shared fabric: the oversubscription factor
	// of its leaf and spine tiers.
	FabricConfig = fabric.Config
	// LinkStat is one fabric link's cumulative counters (bytes carried,
	// busy and saturated time), as listed by the deployment's network:
	// lib.System().Network().Snapshot(). Metrics sums them per tier.
	LinkStat = fabric.LinkStat
	// TierUtil aggregates LinkStats per fabric tier; build it with
	// FabricTierSummary.
	TierUtil = fabric.TierUtil

	// Counters is the snapshot of named process-wide counters returned
	// by (*Library).Metrics; it marshals as canonical JSON (sorted keys).
	Counters = core.Counters
)

// ErrRankLost is the sentinel matched by errors.Is when a launch fails
// because a rank left the group mid-run (KillRank: spot preemption,
// hardware fault). Close the dead handle and Reform over the
// survivors to retry.
var ErrRankLost = core.ErrRankLost

// Fabric constructors and helpers for Config.Network.
var (
	// UnsharedFabric is the legacy pricing: every transfer runs at its
	// path's full bandwidth, blind to concurrent flows. Bit-identical in
	// timing and data to the pre-fabric behavior.
	UnsharedFabric = fabric.Unshared
	// SharedFabric derives the cluster's physical link graph (SHM
	// domains, NICs, leaf and spine switches) and makes concurrent
	// transfers share link capacity max-min fairly.
	SharedFabric = fabric.Shared
	// OversubFabricConfig sets the leaf and spine oversubscription
	// factor to f (1 = full bisection; >1 tapers core capacity).
	OversubFabricConfig = fabric.OversubConfig
	// FabricTierSummary folds per-link stats into one row per tier over
	// a time horizon.
	FabricTierSummary = fabric.TierSummary
)

// Functional options for (*RankContext).Open.
var (
	// WithPriority sets the daemon scheduling priority (higher first).
	WithPriority = core.WithPriority
	// WithCollID pins the explicit collective ID, as dfcclRegister* does.
	WithCollID = core.WithCollID
	// WithGrid sets the thread blocks the collective's kernel needs.
	WithGrid = core.WithGrid
	// WithJob tags the collective with its owning tenant job ID for
	// per-job isolation in the communicator pool and per-tenant
	// attribution of recorded spans, sends, and fabric flows (0 — the
	// default — means untagged single-job use).
	WithJob = core.WithJob
)

// Collective algorithms, selected by Spec.Algo.
const (
	// AlgoRing is the flat topology-blind ring (the default).
	AlgoRing = prim.AlgoRing
	// AlgoHierarchical tiers the collective by node topology: direct
	// SHM exchange intra-node, a leader ring of aggregated blocks over
	// RDMA inter-node — strictly fewer inter-node bytes than the flat
	// ring on multi-node clusters. Available for the all-to-all
	// variants, all-reduce, all-gather, and reduce-scatter.
	AlgoHierarchical = prim.AlgoHierarchical
	// AlgoAuto defers the ring-vs-hierarchical choice to the committed
	// tuning table (internal/tune/default_table.json), keyed by kind,
	// payload size, and the node shape the collective's rank set spans.
	// Kinds without a hierarchical schedule always resolve to the ring.
	AlgoAuto = prim.AlgoAuto
)

// AllReduce builds the spec of an all-reduce over devSet: every rank
// contributes count elements and receives the elementwise reduction.
func AllReduce(count int, t DataType, op ReduceOp, devSet ...int) Spec {
	return Spec{Kind: prim.AllReduce, Count: count, Type: t, Op: op, Ranks: devSet}
}

// AllGather builds the spec of an all-gather over devSet: every rank
// contributes count elements and receives count×N.
func AllGather(count int, t DataType, devSet ...int) Spec {
	return Spec{Kind: prim.AllGather, Count: count, Type: t, Ranks: devSet}
}

// ReduceScatter builds the spec of a reduce-scatter over devSet: every
// rank contributes count elements and receives its count/N share of
// the reduction.
func ReduceScatter(count int, t DataType, op ReduceOp, devSet ...int) Spec {
	return Spec{Kind: prim.ReduceScatter, Count: count, Type: t, Op: op, Ranks: devSet}
}

// Broadcast builds the spec of a broadcast over devSet; root indexes
// devSet, not global ranks.
func Broadcast(count int, t DataType, root int, devSet ...int) Spec {
	return Spec{Kind: prim.Broadcast, Count: count, Type: t, Root: root, Ranks: devSet}
}

// Reduce builds the spec of a reduce over devSet; root indexes devSet.
func Reduce(count int, t DataType, op ReduceOp, root int, devSet ...int) Spec {
	return Spec{Kind: prim.Reduce, Count: count, Type: t, Op: op, Root: root, Ranks: devSet}
}

// AllToAll builds the spec of an all-to-all over devSet: every rank
// sends a distinct count-element block to every peer and receives one
// from each, the dispatch/combine exchange of MoE expert parallelism.
// Send and recv buffers both hold count×N elements; block j of the
// send buffer goes to devSet[j], block i of the recv buffer came from
// devSet[i].
func AllToAll(count int, t DataType, devSet ...int) Spec {
	return Spec{Kind: prim.AllToAll, Count: count, Type: t, Ranks: devSet}
}

// AllToAllv builds the spec of a variable-count all-to-all over devSet:
// block sizes come from a per-peer count matrix instead of a uniform
// count, so skewed exchanges (MoE dispatch under a hot expert) move
// exactly the routed elements with no capacity padding. Assign the
// matrix to Spec.Counts before Open: counts[i][j] elements flow from
// devSet position i to position j. Position i's send buffer is the
// row-i concatenation, its recv buffer the column-i concatenation.
func AllToAllv(t DataType, devSet ...int) Spec {
	return Spec{Kind: prim.AllToAllv, Type: t, Ranks: devSet}
}

// Batch submits several collective runs at once and returns a joined
// future that resolves when all of them complete. Items may target
// different collectives (typically on the same rank); all items are
// validated before anything is submitted. As with Launch, every item's
// buffers belong to its run until the future resolves.
func Batch(p *Process, items ...BatchItem) (*Future, error) {
	return core.Batch(p, items...)
}

// Re-exported constants.
const (
	Float32 = mem.Float32
	Float64 = mem.Float64
	Int32   = mem.Int32
	Int64   = mem.Int64

	Sum  = mem.Sum
	Prod = mem.Prod
	Max  = mem.Max
	Min  = mem.Min

	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second

	// OrderFIFO / OrderPriority select the daemon's ordering policy.
	OrderFIFO     = core.OrderFIFO
	OrderPriority = core.OrderPriority
)

// Cluster constructors matching the paper's testbeds (Table 2).
var (
	// Server3090 builds a single 8-GPU-class RTX 3090 server.
	Server3090 = topo.Server3090
	// Server3080Ti builds a single RTX 3080Ti server.
	Server3080Ti = topo.Server3080Ti
	// MultiNode3090 builds m 8-GPU 3090 servers connected by RDMA.
	MultiNode3090 = topo.MultiNode3090
)

// DefaultConfig returns the paper's evaluated configuration: optimized
// CQ, adaptive stickiness, FIFO ordering.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewBuffer allocates a simulated device buffer of count elements.
func NewBuffer(t DataType, count int) *Buffer {
	return mem.NewBuffer(t, count)
}

// Library is a DFCCL deployment over a simulated cluster plus the
// simulation engine that drives it.
type Library struct {
	sys    *core.System
	engine *sim.Engine
}

// New creates a library over the cluster with the default config.
func New(c *Cluster) *Library { return NewWithConfig(c, DefaultConfig()) }

// NewWithConfig creates a library with an explicit configuration.
func NewWithConfig(c *Cluster, cfg Config) *Library {
	e := sim.NewEngine()
	return &Library{sys: core.NewSystem(e, c, cfg), engine: e}
}

// Go spawns a simulated host process (e.g. one per rank).
func (l *Library) Go(name string, fn func(p *Process)) { l.engine.Spawn(name, fn) }

// Init creates (or returns) the rank context for a GPU — dfcclInit.
func (l *Library) Init(p *Process, rank int) *RankContext { return l.sys.Init(p, rank) }

// Run drives the simulation until all host processes finish. It
// returns sim.ErrDeadlock if the simulated system globally deadlocks —
// which, with DFCCL collectives, it does not.
func (l *Library) Run() error { return l.engine.Run() }

// SetTimeLimit bounds the virtual run time (useful to convert a
// would-be hang into an error in experiments).
func (l *Library) SetTimeLimit(d Duration) { l.engine.MaxTime = sim.Time(d) }

// Now returns the current virtual time in nanoseconds.
func (l *Library) Now() Duration { return Duration(l.engine.Now()) }

// System exposes the underlying deployment for benchmarks and tools
// that need device handles or daemon statistics.
func (l *Library) System() *core.System { return l.sys }

// Metrics snapshots the deployment's process-wide counters:
// launch/completion and daemon lifecycle counters, elastic-membership
// and tuning-pick counts, per-transport wire bytes, and per-tier
// fabric utilization (the "fabric.<tier>.*" sums of LinkStat).
func (l *Library) Metrics() Counters { return l.sys.Metrics() }

// KillRank removes a rank mid-run: every group it participates in
// aborts (in-flight launches resolve with a RankLostError on all
// member ranks, at the executor's preempt/resume checkpoints), and new
// opens over rank sets containing it are refused. Survivors re-form
// with (*Collective).Reform. Killing an already-lost rank is a no-op.
func (l *Library) KillRank(rank int) { l.sys.KillRank(rank) }

// ReviveRank returns a killed rank to the deployment; the next Init
// builds it a fresh context. It fails while the dead rank's abort
// drain is still in flight.
func (l *Library) ReviveRank(rank int) error { return l.sys.ReviveRank(rank) }

// RankLost reports whether a rank is currently killed.
func (l *Library) RankLost(rank int) bool { return l.sys.RankLost(rank) }
