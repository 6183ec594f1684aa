package deadlocksim

import (
	"fmt"
	"sort"
	"testing"
)

// The collective dependency graph of Sec. 2.4, against which the tests
// cross-validate the fixpoint stall detection. Nodes are collective
// parts on GPUs; edges are:
//
//  1. an executing collective part points to all its invoked (but not
//     executing) counterparts on other GPUs, and
//  2. an invoked collective part points to all executing collective
//     parts on the same GPU.
//
// A cycle in this graph is a deadlock.

// partState is the paper's per-GPU collective state.
type partState int

const (
	// notInvoked: the GPU has not reached this collective yet.
	notInvoked partState = iota
	// invoked: submitted on the GPU but not executing.
	invoked
	// executing: holding resources, busy-waiting for peers.
	executing
	// successful: executing on every GPU of its group.
	successful
)

func (s partState) String() string {
	switch s {
	case notInvoked:
		return "not-invoked"
	case invoked:
		return "invoked"
	case executing:
		return "executing"
	case successful:
		return "successful"
	default:
		return fmt.Sprintf("partState(%d)", int(s))
	}
}

// part identifies one collective's part on one GPU.
type part struct {
	Coll int
	GPU  int
}

func (p part) String() string { return fmt.Sprintf("coll%d@gpu%d", p.Coll, p.GPU) }

// depGraph is a snapshot of collective states on which cycles are sought.
type depGraph struct {
	// states maps parts to their state; parts absent are notInvoked.
	states map[part]partState
	// byColl and byGPU index the parts.
	byColl map[int][]part
	byGPU  map[int][]part
}

func newDepGraph() *depGraph {
	return &depGraph{
		states: make(map[part]partState),
		byColl: make(map[int][]part),
		byGPU:  make(map[int][]part),
	}
}

// set records the state of a collective part.
func (g *depGraph) set(coll, gpu int, s partState) {
	p := part{Coll: coll, GPU: gpu}
	if _, seen := g.states[p]; !seen {
		g.byColl[coll] = append(g.byColl[coll], p)
		g.byGPU[gpu] = append(g.byGPU[gpu], p)
	}
	g.states[p] = s
}

// state returns a part's recorded state.
func (g *depGraph) state(coll, gpu int) partState { return g.states[part{Coll: coll, GPU: gpu}] }

// successors enumerates the dependency edges out of p.
func (g *depGraph) successors(p part) []part {
	var out []part
	switch g.states[p] {
	case executing:
		// Edge type 1: executing part -> invoked counterparts.
		for _, q := range g.byColl[p.Coll] {
			if q.GPU != p.GPU && g.states[q] == invoked {
				out = append(out, q)
			}
		}
	case invoked:
		// Edge type 2: invoked part -> executing parts on same GPU.
		for _, q := range g.byGPU[p.GPU] {
			if q.Coll != p.Coll && g.states[q] == executing {
				out = append(out, q)
			}
		}
	}
	return out
}

// findCycle returns one dependency cycle, or nil if the graph is
// acyclic. The cycle is returned in edge order, first node repeated at
// the end.
func (g *depGraph) findCycle() []part {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[part]int, len(g.states))
	parent := make(map[part]part)

	var cycle []part
	var dfs func(p part) bool
	dfs = func(p part) bool {
		color[p] = gray
		for _, q := range g.successors(p) {
			switch color[q] {
			case white:
				parent[q] = p
				if dfs(q) {
					return true
				}
			case gray:
				// Found a back edge q..p; reconstruct.
				cycle = []part{q}
				for cur := p; cur != q; cur = parent[cur] {
					cycle = append(cycle, cur)
				}
				// Reverse into edge order and close the loop.
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				cycle = append(cycle, q)
				return true
			}
		}
		color[p] = black
		return false
	}
	// Deterministic iteration order for reproducible reports.
	roots := make([]part, 0, len(g.states))
	for p := range g.states {
		roots = append(roots, p)
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].Coll != roots[j].Coll {
			return roots[i].Coll < roots[j].Coll
		}
		return roots[i].GPU < roots[j].GPU
	})
	for _, p := range roots {
		if color[p] == white && dfs(p) {
			return cycle
		}
	}
	return nil
}

// deadlocked reports whether the snapshot contains a circular wait.
func (g *depGraph) deadlocked() bool { return g.findCycle() != nil }

// debugRound plays a single round (forcing simulation by retrying until
// a round is not skipped, up to maxTries) and returns whether it
// deadlocked plus the round's dependency graph.
func debugRound(cfg Config, maxTries int) (deadlocked bool, simulated bool, g *depGraph) {
	s := newSim(cfg)
	for try := 0; try < maxTries; try++ {
		deadlocked = s.roundDeadlocks()
		if !s.skippedLast {
			return deadlocked, true, s.snapshot()
		}
	}
	return false, false, newDepGraph()
}

// snapshot converts the round's final state into a dependency graph.
func (s *sim) snapshot() *depGraph {
	g := newDepGraph()
	for c := 0; c < s.numColls; c++ {
		if s.success[c] {
			for _, m := range s.members[c] {
				g.set(c, int(m), successful)
			}
			continue
		}
		executed := make(map[int32]bool, len(s.execOn[c]))
		for _, m := range s.execOn[c] {
			executed[m] = true
		}
		for _, m := range s.members[c] {
			if executed[m] {
				g.set(c, int(m), executing)
			} else {
				g.set(c, int(m), invoked)
			}
		}
	}
	return g
}

func TestNoCycleWhenConsistent(t *testing.T) {
	g := newDepGraph()
	// Collective A executing everywhere: no invoked parts, no edges.
	g.set(1, 0, executing)
	g.set(1, 1, executing)
	if g.deadlocked() {
		t.Fatal("fully executing collective reported as deadlock")
	}
}

func TestFig1cCycleDetected(t *testing.T) {
	// GPU 0 executes A with B invoked; GPU 1 executes B with A invoked:
	// A@0 -> A@1 -> B@1 -> B@0 -> A@0.
	g := newDepGraph()
	g.set(1, 0, executing) // A on GPU 0
	g.set(2, 0, invoked)   // B on GPU 0
	g.set(2, 1, executing) // B on GPU 1
	g.set(1, 1, invoked)   // A on GPU 1
	cycle := g.findCycle()
	if cycle == nil {
		t.Fatal("Fig. 1(c) pattern not detected")
	}
	if first, last := cycle[0], cycle[len(cycle)-1]; first != last {
		t.Fatalf("cycle not closed: %v", cycle)
	}
	if len(cycle) != 5 { // 4 distinct parts + repeated head
		t.Fatalf("cycle = %v, want length 5", cycle)
	}
	// Each consecutive pair must be a legal dependency edge.
	for i := 0; i+1 < len(cycle); i++ {
		from, to := cycle[i], cycle[i+1]
		legal := false
		switch g.state(from.Coll, from.GPU) {
		case executing:
			legal = from.Coll == to.Coll && g.state(to.Coll, to.GPU) == invoked
		case invoked:
			legal = from.GPU == to.GPU && g.state(to.Coll, to.GPU) == executing
		}
		if !legal {
			t.Fatalf("illegal edge %v -> %v in %v", from, to, cycle)
		}
	}
}

func TestFig2ExampleCycle(t *testing.T) {
	// The paper's Fig. 2: A..E on four GPUs with the documented cycle
	// A0->A1->B1->B2->C2->C3->D3->D0->A0.
	g := newDepGraph()
	type st struct {
		coll, gpu int
		s         partState
	}
	states := []st{
		{0, 0, executing}, {1, 0, executing}, {2, 0, executing}, {3, 0, invoked}, {4, 0, invoked},
		{1, 1, executing}, {2, 1, executing}, {3, 1, executing}, {0, 1, invoked}, {4, 1, invoked},
		{0, 2, executing}, {2, 2, executing}, {3, 2, executing}, {1, 2, invoked}, {4, 2, invoked},
		{0, 3, executing}, {1, 3, executing}, {3, 3, executing}, {2, 3, invoked}, {4, 3, invoked},
	}
	for _, x := range states {
		g.set(x.coll, x.gpu, x.s)
	}
	if !g.deadlocked() {
		t.Fatal("Fig. 2 scenario not detected as deadlock")
	}
}

func TestSuccessfulPartsHaveNoEdges(t *testing.T) {
	g := newDepGraph()
	g.set(1, 0, successful)
	g.set(1, 1, successful)
	g.set(2, 0, executing)
	g.set(2, 1, invoked)
	// Chain 2@0 -> 2@1 -> (executing on GPU 1: none) has no cycle.
	if g.deadlocked() {
		t.Fatal("acyclic wait chain reported as deadlock")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[partState]string{
		notInvoked: "not-invoked", invoked: "invoked",
		executing: "executing", successful: "successful",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", int(s), s.String())
		}
	}
	p := part{Coll: 3, GPU: 7}
	if p.String() != "coll3@gpu7" {
		t.Fatalf("part string = %q", p.String())
	}
}

func TestDeterministicCycleReport(t *testing.T) {
	mk := func() []part {
		g := newDepGraph()
		g.set(1, 0, executing)
		g.set(2, 0, invoked)
		g.set(2, 1, executing)
		g.set(1, 1, invoked)
		g.set(5, 2, executing) // unrelated parts
		g.set(6, 2, invoked)
		return g.findCycle()
	}
	first := mk()
	for i := 0; i < 5; i++ {
		again := mk()
		if len(again) != len(first) {
			t.Fatalf("cycle length varies: %v vs %v", again, first)
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("cycle report nondeterministic: %v vs %v", again, first)
			}
		}
	}
}
