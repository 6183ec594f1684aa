// Package tune holds DFCCL's algorithm auto-tuning table: the
// committed artifact mapping (collective kind, payload size, cluster
// shape) to the primitive-sequence algorithm that measured fastest, and
// the picker that resolves prim.AlgoAuto against it at Open time.
//
// The table is a list of crossover rows, one per (kind, node shape,
// fabric): below the crossover the flat ring wins (fewer stages, no
// leader funnelling), at and above it the hierarchical schedule's RDMA
// savings dominate. The committed default (default_table.json, embedded
// at build time) is regenerated by the sweep driver
// (bench.TuneSweep, exposed as `trainbench -fig tune`), never edited by
// hand; regeneration is deterministic, so a re-run must be a no-op
// diff.
package tune

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"

	"dfccl/internal/prim"
	"dfccl/internal/topo"
)

// Row is one tuning-table entry: the measured ring→hierarchical
// crossover for a (kind, node shape, fabric) cell.
type Row struct {
	// Kind is the collective's NCCL-style name (prim.Kind.String()).
	Kind string `json:"kind"`
	// Nodes × GPUsPerNode is the cluster shape the crossover was
	// measured on.
	Nodes       int `json:"nodes"`
	GPUsPerNode int `json:"gpus_per_node"`
	// Fabric names the pricing model of the sweep ("unshared" or
	// "oversub<F>"). The picker prefers "unshared" rows — the default
	// deployment pricing — when several fabrics match a shape.
	Fabric string `json:"fabric"`
	// CrossoverElems is the smallest per-rank payload (elements, in the
	// ElemsFor key) at which the hierarchical schedule measured no
	// slower than the ring, with every larger probed payload agreeing.
	// 0 means hierarchical always won; -1 means it never did (the ring
	// is picked at every size).
	CrossoverElems int `json:"crossover_elems"`
}

// Table is the auto-tuning table: Pick resolves prim.AlgoAuto rows
// against it.
type Table struct {
	Rows []Row `json:"rows"`
}

//go:embed default_table.json
var defaultTableJSON []byte

// Default returns the committed tuning table embedded at build time.
// Each call parses a fresh copy, so callers may mutate the result.
func Default() *Table {
	t, err := Parse(defaultTableJSON)
	if err != nil {
		// The embedded artifact is committed alongside this package; a
		// parse failure is a broken build, not a runtime condition.
		panic(fmt.Sprintf("tune: embedded default_table.json invalid: %v", err))
	}
	return t
}

// Parse decodes a tuning table from its JSON artifact form.
func Parse(data []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("tune: parse table: %w", err)
	}
	for _, r := range t.Rows {
		if r.Nodes <= 0 || r.GPUsPerNode <= 0 {
			return nil, fmt.Errorf("tune: row %+v has a non-positive shape", r)
		}
		if r.CrossoverElems < -1 {
			return nil, fmt.Errorf("tune: row %+v crossover below -1", r)
		}
	}
	return &t, nil
}

// Marshal encodes the table in its canonical artifact form: rows sorted
// by (kind, nodes, gpus, fabric), indented, newline-terminated —
// so regenerating the committed file is byte-stable.
func (t *Table) Marshal() ([]byte, error) {
	cp := Table{Rows: append([]Row(nil), t.Rows...)}
	sort.Slice(cp.Rows, func(i, j int) bool {
		a, b := cp.Rows[i], cp.Rows[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Nodes != b.Nodes {
			return a.Nodes < b.Nodes
		}
		if a.GPUsPerNode != b.GPUsPerNode {
			return a.GPUsPerNode < b.GPUsPerNode
		}
		return a.Fabric < b.Fabric
	})
	data, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// hierSupported mirrors prim.Spec.Validate's (kind, algorithm) support
// matrix: the kinds with a hierarchical sequence builder.
func hierSupported(k prim.Kind) bool {
	switch k {
	case prim.AllToAll, prim.AllToAllv, prim.AllReduce, prim.AllGather, prim.ReduceScatter:
		return true
	}
	return false
}

// ElemsFor is the table's payload-size key for a spec: the per-rank
// element scale the sweep indexed crossovers by. Uniform kinds key on
// Count (the per-peer block for all-to-all); all-to-all-v, whose
// payload is a matrix, keys on its mean per-pair count so a skewed
// exchange lands near the uniform exchange moving the same bytes.
func ElemsFor(spec prim.Spec) int {
	if spec.Kind != prim.AllToAllv {
		return spec.Count
	}
	n, total := len(spec.Counts), 0
	for _, row := range spec.Counts {
		for _, c := range row {
			total += c
		}
	}
	if n == 0 {
		return 0
	}
	return (total + n*n - 1) / (n * n)
}

// Pick resolves prim.AlgoAuto to a concrete algorithm for a collective
// of the given kind and payload on a nodes × gpusPerNode shape. Kinds
// without a hierarchical builder always resolve to the ring, so the
// picker can never select an algorithm Validate would refuse. Among
// the kind's rows it matches the nearest shape (node-count distance
// dominating, then GPUs per node, "unshared" rows preferred on ties)
// and applies its crossover; a kind with no rows falls back to the
// ring. For a fixed spec shape the result is monotone in elems: the
// single-crossover representation can never pick the hierarchical
// schedule for a payload and the ring for a larger one.
func (t *Table) Pick(kind prim.Kind, elems, nodes, gpusPerNode int) prim.Algorithm {
	if !hierSupported(kind) {
		return prim.AlgoRing
	}
	best, bestScore := Row{}, -1
	for _, r := range t.Rows {
		if r.Kind != kind.String() {
			continue
		}
		score := abs(nodes-r.Nodes)*1000 + abs(gpusPerNode-r.GPUsPerNode)*10
		if r.Fabric != "unshared" {
			score++
		}
		if bestScore < 0 || score < bestScore {
			best, bestScore = r, score
		}
	}
	if bestScore < 0 || best.CrossoverElems < 0 || elems < best.CrossoverElems {
		return prim.AlgoRing
	}
	return prim.AlgoHierarchical
}

// PickForExplained resolves a spec's AlgoAuto on a concrete cluster:
// the node shape is derived from the spec's rank set (the node count the
// ranks actually span, and the largest per-node contingent), so a
// collective over a subset of the cluster is tuned for the shape it runs
// on, not the shape of the whole machine room. It also returns a short
// human-readable note — the shape the picker saw and the algorithm it
// chose, e.g. "all-reduce elems=4096 shape=2x4 -> hierarchical" — for
// the flight recorder's tune-pick marks.
func (t *Table) PickForExplained(c *topo.Cluster, spec prim.Spec) (prim.Algorithm, string) {
	g := prim.GroupByNode(c, spec.Ranks)
	gpn := 1
	for _, members := range g.Members {
		if len(members) > gpn {
			gpn = len(members)
		}
	}
	elems := ElemsFor(spec)
	algo := t.Pick(spec.Kind, elems, g.Nodes(), gpn)
	note := fmt.Sprintf("%v elems=%d shape=%dx%d -> %v", spec.Kind, elems, g.Nodes(), gpn, algo)
	return algo, note
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
