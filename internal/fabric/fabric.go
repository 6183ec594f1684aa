// Package fabric models the cluster's physical network as shared-link
// capacity pools, so that concurrent transfers contend for bandwidth
// instead of being priced in isolation.
//
// The link graph is derived from the same topo.Cluster the rest of the
// stack uses: each GPU reaches its PCIe-domain SHM pool, crosses the
// inter-socket bus to the other domain, or leaves the machine through a
// NIC toward a leaf switch and (past the leaf) a spine pool, with a
// per-tier oversubscription factor tapering leaf and spine capacity.
// A transfer becomes a flow that holds capacity on every link of its
// route; concurrently-active flows share each link max-min fairly
// (progressive filling), and whenever a flow joins or finishes the fair
// shares are re-solved and each in-flight flow whose rate the solve changed
// is woken to re-schedule its remaining bytes at its new rate; a flow whose
// rate held keeps the completion it predicted. The engine does that on the
// transfer's behalf (an Xfer is a sim.Stepper): whoever is transferring is
// resumed only once the transfer is over. A transfer's duration therefore
// depends on who else is on the wire — the congestion behavior the
// independent Path.TransferTime pricing cannot express.
//
// Two constructors cover the two pricing regimes. Unshared builds a
// network with no links at all: Transfer sleeps exactly
// Path.TransferTime — every transfer priced independently — and is the
// default everywhere. Shared builds
// the contended link graph. Data movement never depends on the choice;
// only virtual-time durations do.
package fabric

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"dfccl/internal/sim"
	"dfccl/internal/topo"
	"dfccl/internal/trace"
)

// Tier names the level of the physical hierarchy a link belongs to.
// Tiers order the per-tier summaries from closest-to-GPU outward.
type Tier int

const (
	// TierSHM is a PCIe-domain shared-memory pool (one per domain).
	TierSHM Tier = iota
	// TierSys is the inter-socket bus pool (one per machine).
	TierSys
	// TierNIC is a machine's NIC, split into tx and rx directions.
	TierNIC
	// TierLeaf is a leaf switch's uplink toward the spine (per direction).
	TierLeaf
	// TierSpine is the single core pool all cross-leaf traffic shares.
	TierSpine
)

// String names the tier for reports.
func (t Tier) String() string {
	switch t {
	case TierSHM:
		return "shm"
	case TierSys:
		return "sys"
	case TierNIC:
		return "nic"
	case TierLeaf:
		return "leaf"
	case TierSpine:
		return "spine"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Link is one shared capacity pool in the fabric graph. Its mutable
// fields are solver and accounting state owned by the Network; only the
// Network's engine-driven processes touch them, one at a time, under the
// simulator's cooperative scheduling.
type Link struct {
	// Name identifies the link in stats, e.g. "spine" or "nic-tx/m2".
	Name string
	// Tier is the hierarchy level the link sits on.
	Tier Tier
	// Capacity is the pool's total bandwidth in bytes/second.
	Capacity float64
	idx      int // position in Network.links

	// Accounting, accumulated by advance().
	bytes     float64      // bytes carried so far
	busy      sim.Duration // time with at least one active flow
	saturated sim.Duration // time with the full capacity allocated

	// Live solver state (valid between recompute calls, zero while idle).
	nflows       int     // active flows crossing the link, kept by join and remove
	alloc        float64 // total rate allocated across those flows
	saturatedNow bool    // alloc reached capacity at last solve

	// Scratch for one water-filling solve.
	avail float64
	live  int
}

// LinkStat is a point-in-time snapshot of one link's accumulated
// counters, surfaced through CollectiveStats and the bench sweeps.
type LinkStat struct {
	// Name and Tier identify the link (see Link).
	Name string
	Tier Tier
	// Capacity is the link's bandwidth pool in bytes/second.
	Capacity float64
	// Bytes is the total traffic the link has carried.
	Bytes float64
	// Busy is the virtual time the link spent with ≥1 active flow.
	Busy sim.Duration
	// Saturated is the virtual time the link spent fully allocated —
	// the max-min solve left it no spare capacity.
	Saturated sim.Duration
}

// Utilization returns the fraction of the link's capacity×horizon
// actually carried; 0 when the horizon is empty.
func (s LinkStat) Utilization(horizon sim.Duration) float64 {
	if horizon <= 0 || s.Capacity <= 0 {
		return 0
	}
	return s.Bytes / (s.Capacity * float64(horizon) / 1e9)
}

// TierUtil aggregates the links of one tier over a horizon, for the
// per-tier utilization report next to the per-transport byte split.
type TierUtil struct {
	// Tier is the hierarchy level being summarized.
	Tier Tier
	// Links is the number of links on the tier.
	Links int
	// Bytes is the total traffic carried across the tier's links.
	Bytes float64
	// PeakUtil is the maximum per-link utilization over the horizon —
	// the hottest link, where skewed routing concentrates.
	PeakUtil float64
	// Saturated is the maximum per-link fully-allocated time.
	Saturated sim.Duration
}

// TierSummary folds per-link stats into one row per tier, ordered from
// the GPU outward (shm, sys, nic, leaf, spine). Tiers with no links are
// omitted.
func TierSummary(stats []LinkStat, horizon sim.Duration) []TierUtil {
	byTier := make([]TierUtil, 0, TierSpine+1) // indexed by tier
	for _, s := range stats {
		for int(s.Tier) >= len(byTier) {
			byTier = append(byTier, TierUtil{Tier: Tier(len(byTier))})
		}
		tu := &byTier[s.Tier]
		tu.Links++
		tu.Bytes += s.Bytes
		if u := s.Utilization(horizon); u > tu.PeakUtil {
			tu.PeakUtil = u
		}
		if s.Saturated > tu.Saturated {
			tu.Saturated = s.Saturated
		}
	}
	return slices.DeleteFunc(byTier, func(tu TierUtil) bool { return tu.Links == 0 })
}

// Route is the priced path of one transfer: the endpoint-to-endpoint
// Path (transport, bandwidth cap, latency) plus the shared links the
// transfer crosses. Under Unshared networks — and for device-local
// paths — Links is empty and pricing reduces to Path.TransferTime.
type Route struct {
	// Path carries the legacy per-path pricing: its Latency is always
	// charged up front and its Bandwidth caps the flow's fair share.
	Path topo.Path
	// Links are the shared pools the flow reserves capacity on, in
	// source-to-destination order.
	Links []*Link
}

// machinesPerLeaf groups machines under leaf switches: machine m
// attaches to leaf m/machinesPerLeaf.
const machinesPerLeaf = 2

// Config parameterizes the shared link graph built by Shared.
type Config struct {
	// Oversub tapers the switch tiers. A leaf serving k machines
	// uplinks k×RDMABW/Oversub; with M machines the spine carries
	// M×RDMABW/Oversub² — tapering compounds per tier, as in a fat-tree
	// built from fixed-radix switches. Heavy taper can push a pool below
	// a single path's line rate, in which case even an uncontended flow
	// is held to the pool (a blocking core). Values below 1 become 1
	// (non-blocking). The intra-node pools are never tapered.
	Oversub float64
}

// OversubConfig returns the fabric with both the leaf and spine tapered
// by factor f — "the" oversubscription factor of the sweeps.
func OversubConfig(f float64) Config { return Config{Oversub: f} }

// Network prices transfers over a cluster, either independently
// (Unshared) or against a shared-link capacity graph (Shared). One
// Network is shared by every communicator of a system; all access
// happens from simulated processes, which the engine serializes.
type Network struct {
	cluster *topo.Cluster
	oversub float64 // Config.Oversub, at least 1
	shared  bool

	links []*Link // all links, in deterministic construction order

	shm      map[[2]int]*Link // (machine, domain) → PCIe-domain pool
	sys      []*Link          // per machine; nil entries if single-domain
	nicTx    []*Link          // per machine; nil if single machine
	nicRx    []*Link
	leafUp   []*Link // per leaf; nil if single leaf
	leafDown []*Link
	spine    *Link // nil if single leaf

	routes map[[2]int]Route

	flows  []*flow
	busy   []uint64 // bit i set: links[i] carries a flow
	spare  []*Xfer  // finished TransferJob records, reused by the next ones
	lastAt sim.Time // last time flow progress was accrued

	rec     *trace.Recorder // nil = no flow/saturation recording
	flowSeq int             // last assigned flow ID

	jobBytes map[int]int64 // per-tenant byte attribution, keyed by job ID
}

// SetRecorder attaches a flight recorder: flow lifecycle events
// (start, rate changes from the max-min solve, finish) and per-link
// saturation intervals are recorded when rec is non-nil. core wires
// this from Config.Recorder at system construction; nil (the default)
// keeps transfers recording-free.
func (n *Network) SetRecorder(rec *trace.Recorder) { n.rec = rec }

// Unshared returns a network with no shared links: Transfer sleeps
// exactly Path.TransferTime(bytes), pricing every transfer
// independently. It is the default pricing model.
func Unshared(c *topo.Cluster) *Network {
	return &Network{
		cluster: c,
		routes:  make(map[[2]int]Route),
	}
}

// Shared returns a network whose transfers contend on the cluster's
// link graph under cfg's oversubscription factor.
func Shared(c *topo.Cluster, cfg Config) *Network {
	n := &Network{
		cluster: c,
		oversub: max(cfg.Oversub, 1),
		shared:  true,
		shm:     make(map[[2]int]*Link),
		routes:  make(map[[2]int]Route),
	}
	n.build()
	return n
}

// addLink registers a pool and returns it.
func (n *Network) addLink(name string, tier Tier, capacity float64) *Link {
	l := &Link{Name: name, Tier: tier, Capacity: capacity, idx: len(n.links)}
	n.links = append(n.links, l)
	if l.idx%64 == 0 {
		n.busy = append(n.busy, 0)
	}
	return l
}

// busyLinks yields the links carrying a flow in construction order, so
// every solve does the same float operations in the same order.
func (n *Network) busyLinks(yield func(*Link) bool) {
	for w, word := range n.busy {
		for ; word != 0; word &= word - 1 {
			if !yield(n.links[w*64+bits.TrailingZeros64(word)]) {
				return
			}
		}
	}
}

// build derives the link graph from the cluster description.
func (n *Network) build() {
	c := n.cluster
	machines := len(c.Machines)
	leaves := (machines + machinesPerLeaf - 1) / machinesPerLeaf

	n.sys = make([]*Link, machines)
	n.nicTx = make([]*Link, machines)
	n.nicRx = make([]*Link, machines)
	for _, m := range c.Machines {
		// One SHM pool per PCIe domain, sized by its GPU population.
		perDomain := make([]int, 0, 4) // GPUs by domain; a constant cap keeps it on the stack
		for _, g := range m.GPUs {
			for g.Domain >= len(perDomain) {
				perDomain = append(perDomain, 0)
			}
			perDomain[g.Domain]++
		}
		domains := 0
		for d, gpus := range perDomain {
			if gpus == 0 {
				continue
			}
			domains++
			cap := float64(gpus) * c.Links.SHMSameDomainBW
			n.shm[[2]int{m.Index, d}] = n.addLink(fmt.Sprintf("shm/m%d.d%d", m.Index, d), TierSHM, cap)
		}
		if domains > 1 {
			n.sys[m.Index] = n.addLink(fmt.Sprintf("sys/m%d", m.Index),
				TierSys, 2*c.Links.SHMCrossDomainBW)
		}
		if machines > 1 {
			n.nicTx[m.Index] = n.addLink(fmt.Sprintf("nic-tx/m%d", m.Index), TierNIC, c.Links.RDMABW)
			n.nicRx[m.Index] = n.addLink(fmt.Sprintf("nic-rx/m%d", m.Index), TierNIC, c.Links.RDMABW)
		}
	}
	if leaves > 1 {
		n.leafUp = make([]*Link, leaves)
		n.leafDown = make([]*Link, leaves)
		for l := 0; l < leaves; l++ {
			under := min(machinesPerLeaf, machines-l*machinesPerLeaf)
			cap := float64(under) * c.Links.RDMABW / n.oversub
			n.leafUp[l] = n.addLink(fmt.Sprintf("leaf-up/l%d", l), TierLeaf, cap)
			n.leafDown[l] = n.addLink(fmt.Sprintf("leaf-down/l%d", l), TierLeaf, cap)
		}
		n.spine = n.addLink("spine", TierSpine,
			float64(machines)*c.Links.RDMABW/(n.oversub*n.oversub))
	}
}

// Cluster returns the cluster the network was built from.
func (n *Network) Cluster() *topo.Cluster { return n.cluster }

// Contended reports whether the network models shared-link contention
// (built by Shared) as opposed to independent pricing (Unshared).
func (n *Network) Contended() bool { return n.shared }

// leafOf returns the leaf switch index of a machine.
func (n *Network) leafOf(machine int) int { return machine / machinesPerLeaf }

// RouteBetween returns the priced route from rank a to rank b,
// including the shared links the transfer crosses (none under Unshared
// networks or for device-local paths). Routes are cached.
func (n *Network) RouteBetween(a, b int) Route {
	key := [2]int{a, b}
	if r, ok := n.routes[key]; ok {
		return r
	}
	r := Route{Path: n.cluster.PathBetween(a, b)}
	if n.shared && a != b {
		ga, gb := n.cluster.GPUs[a], n.cluster.GPUs[b]
		switch {
		case ga.Machine != gb.Machine:
			r.Links = append(r.Links, n.nicTx[ga.Machine])
			la, lb := n.leafOf(ga.Machine), n.leafOf(gb.Machine)
			if la != lb {
				r.Links = append(r.Links, n.leafUp[la], n.spine, n.leafDown[lb])
			}
			r.Links = append(r.Links, n.nicRx[gb.Machine])
		case ga.Domain != gb.Domain:
			r.Links = append(r.Links,
				n.shm[[2]int{ga.Machine, ga.Domain}],
				n.sys[ga.Machine],
				n.shm[[2]int{gb.Machine, gb.Domain}])
		default:
			r.Links = append(r.Links, n.shm[[2]int{ga.Machine, ga.Domain}])
		}
	}
	n.routes[key] = r
	return r
}

// Snapshot returns the accumulated per-link counters in construction
// order (machine-major, GPU tiers outward, spine last). It is empty for
// Unshared networks, which have no links.
func (n *Network) Snapshot() []LinkStat {
	out := make([]LinkStat, len(n.links))
	for i, l := range n.links {
		out[i] = LinkStat{
			Name:      l.Name,
			Tier:      l.Tier,
			Capacity:  l.Capacity,
			Bytes:     l.bytes,
			Busy:      l.busy,
			Saturated: l.saturated,
		}
	}
	return out
}

// JobBytes returns the bytes moved through the network per tenant job
// ID, as attributed by TransferJob (key 0 collects untagged transfers).
// Unlike link byte counters it is accrued on both shared and unshared
// networks, so per-tenant attribution works under either pricing model.
func (n *Network) JobBytes() map[int]int64 {
	if n.jobBytes == nil {
		return map[int]int64{}
	}
	return maps.Clone(n.jobBytes)
}

// NICLoad returns, per machine, the bytes accrued so far on that
// machine's NIC-tier links (tx + rx). It is the load signal the cluster
// driver's bin-packing admission policy sorts on. The loads are written
// over buf's array, which the caller owns and may pass again on its next
// call. Nil when the network is unshared or single-machine (no NIC links
// exist).
func (n *Network) NICLoad(buf []float64) []float64 {
	if !n.shared || n.nicTx == nil {
		return nil
	}
	buf = buf[:0]
	for m, tx := range n.nicTx {
		load := 0.0
		if tx != nil {
			load = tx.bytes + n.nicRx[m].bytes
		}
		buf = append(buf, load)
	}
	return buf
}
