// Package topo models the hardware topology of the paper's testbeds:
// dual-socket servers with eight GPUs split across two PIX PCIe domains,
// 56 Gb/s NICs, and a Mellanox switch connecting servers (Table 2 of the
// paper). It answers one question for the rest of the stack: what
// bandwidth and latency does the path between two GPUs provide, and
// which transport (SHM or RDMA) it uses.
package topo

import "fmt"

// Transport identifies the data path between two GPUs.
type Transport int

const (
	// TransportLocal is a GPU talking to itself (device-local copy).
	TransportLocal Transport = iota
	// TransportSHM is intra-node shared-memory transport.
	TransportSHM
	// TransportRDMA is inter-node RDMA through the NICs and switch.
	TransportRDMA
)

// String returns the short transport label ("LOC", "SHM", "RDMA") the
// traces and reports print.
func (t Transport) String() string {
	switch t {
	case TransportLocal:
		return "LOC"
	case TransportSHM:
		return "SHM"
	case TransportRDMA:
		return "RDMA"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// GPUModel describes a GPU SKU.
type GPUModel struct {
	Name   string
	NumSMs int
	// SharedMemPerSM is the shared memory available per SM in bytes.
	SharedMemPerSM int
	// CopyBandwidth is the device-local memory bandwidth in bytes/sec
	// available to a single collective's copy/reduce loop.
	CopyBandwidth float64
}

// Predefined GPU models for the paper's two server types.
var (
	RTX3080Ti = GPUModel{Name: "RTX3080Ti", NumSMs: 80, SharedMemPerSM: 100 << 10, CopyBandwidth: 350e9}
	RTX3090   = GPUModel{Name: "RTX3090", NumSMs: 82, SharedMemPerSM: 100 << 10, CopyBandwidth: 380e9}
)

// Path describes the communication characteristics between two GPUs.
type Path struct {
	Transport Transport
	// Bandwidth in bytes per second.
	Bandwidth float64
	// Latency is the fixed per-message cost in nanoseconds.
	Latency int64
}

// GPU is one device in the cluster.
type GPU struct {
	Rank    int // global rank
	Machine int
	Local   int // index within the machine
	Domain  int // PCIe PIX domain within the machine
	Model   GPUModel
}

// Machine is one server.
type Machine struct {
	Index int
	Model GPUModel
	GPUs  []*GPU
	// DomainSize is the number of GPUs per PIX domain.
	DomainSize int
}

// LinkSpec parameterizes the fabric of a cluster.
type LinkSpec struct {
	// SHMSameDomainBW/Lat: GPUs under the same PCIe switch (PIX).
	SHMSameDomainBW  float64
	SHMSameDomainLat int64
	// SHMCrossDomainBW/Lat: GPUs across sockets (SYS).
	SHMCrossDomainBW  float64
	SHMCrossDomainLat int64
	// RDMABW/Lat: inter-machine through NIC + switch.
	RDMABW  float64
	RDMALat int64
}

// DefaultLinks reflects the paper's testbed: SHM transports intra-node
// and 56 Gb/s RDMA (≈7 GB/s, minus protocol overhead) inter-node.
// Latencies reflect the effective per-step cost the paper's Fig. 9
// implies for SHM transports on the 3090-server (an all-gather step
// costs ≈5.6µs at 4KB) rather than raw PCIe latency: the SHM transport
// stages chunks through host-mapped memory.
var DefaultLinks = LinkSpec{
	SHMSameDomainBW:   20e9,
	SHMSameDomainLat:  5000,
	SHMCrossDomainBW:  11e9,
	SHMCrossDomainLat: 6200,
	RDMABW:            6.2e9,
	RDMALat:           9000,
}

// Cluster is a set of machines with a fabric.
type Cluster struct {
	Machines []*Machine
	GPUs     []*GPU // flattened, indexed by global rank
	Links    LinkSpec
}

// NewCluster builds a cluster of identical machines with gpus GPUs
// each, split into two PIX domains per machine (as in Table 2).
func NewCluster(machines, gpus int, model GPUModel, links LinkSpec) *Cluster {
	if machines < 1 || gpus < 1 {
		panic("topo: cluster needs at least one machine and one GPU")
	}
	c := &Cluster{Links: links}
	domainSize := (gpus + 1) / 2
	rank := 0
	for m := 0; m < machines; m++ {
		mach := &Machine{Index: m, Model: model, DomainSize: domainSize}
		for l := 0; l < gpus; l++ {
			g := &GPU{
				Rank:    rank,
				Machine: m,
				Local:   l,
				Domain:  l / domainSize,
				Model:   model,
			}
			mach.GPUs = append(mach.GPUs, g)
			c.GPUs = append(c.GPUs, g)
			rank++
		}
		c.Machines = append(c.Machines, mach)
	}
	return c
}

// Server3090 builds an n-GPU single 3090-server (n ≤ 8), as used in most
// of the paper's single-node experiments.
func Server3090(gpus int) *Cluster { return NewCluster(1, gpus, RTX3090, DefaultLinks) }

// Server3080Ti builds an n-GPU single 3080Ti-server.
func Server3080Ti(gpus int) *Cluster { return NewCluster(1, gpus, RTX3080Ti, DefaultLinks) }

// MultiNode3090 builds a cluster of m 3090-servers with 8 GPUs each
// connected by RDMA, as in the 16- and 32-GPU experiments.
func MultiNode3090(machines int) *Cluster { return NewCluster(machines, 8, RTX3090, DefaultLinks) }

// Size returns the total number of GPUs.
func (c *Cluster) Size() int { return len(c.GPUs) }

// PathBetween returns the path characteristics from rank a to rank b.
func (c *Cluster) PathBetween(a, b int) Path {
	if a < 0 || b < 0 || a >= len(c.GPUs) || b >= len(c.GPUs) {
		panic(fmt.Sprintf("topo: rank out of range: %d -> %d (size %d)", a, b, len(c.GPUs)))
	}
	ga, gb := c.GPUs[a], c.GPUs[b]
	switch {
	case a == b:
		return Path{Transport: TransportLocal, Bandwidth: ga.Model.CopyBandwidth, Latency: 300}
	case ga.Machine != gb.Machine:
		return Path{Transport: TransportRDMA, Bandwidth: c.Links.RDMABW, Latency: c.Links.RDMALat}
	case ga.Domain != gb.Domain:
		return Path{Transport: TransportSHM, Bandwidth: c.Links.SHMCrossDomainBW, Latency: c.Links.SHMCrossDomainLat}
	default:
		return Path{Transport: TransportSHM, Bandwidth: c.Links.SHMSameDomainBW, Latency: c.Links.SHMSameDomainLat}
	}
}

// TransferTime returns the virtual-time cost in nanoseconds of moving
// bytes over the path: fixed latency plus serialization at the path
// bandwidth.
func (p Path) TransferTime(bytes int) int64 {
	if bytes < 0 {
		panic("topo: negative transfer size")
	}
	return p.Latency + int64(float64(bytes)/p.Bandwidth*1e9)
}
