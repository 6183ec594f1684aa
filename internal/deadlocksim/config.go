// Package deadlocksim implements the paper's Sec. 2.4 simulator: a
// quantitative model of how disordered collective invocation and GPU
// synchronization turn into deadlocks, under two deadlock decision
// models (single-queue and synchronization) and two GPU grouping
// policies (3D-hybrid and free grouping). It regenerates Table 1.
package deadlocksim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Model selects the deadlock decision model.
type Model int

const (
	// SingleQueue: each GPU executes one collective at a time in
	// invocation order (Fig. 1(c) semantics). It plays as the
	// synchronization model with a sync after every collective.
	SingleQueue Model = iota
	// Synchronization: unlimited concurrent execution, but randomly
	// issued GPU synchronization suspends a GPU until its executing
	// collectives succeed (Fig. 1(d) semantics).
	Synchronization
)

// String is the model's short name: "single-queue" or "sync".
func (m Model) String() string {
	if m == Synchronization {
		return "sync"
	}
	return "single-queue"
}

// Config is one simulation configuration (one row of Table 1).
type Config struct {
	Name  string
	Model Model
	// Groups lists the member GPUs of each group.
	Groups [][]int
	// CollsPerGroup gives each group's planned collective count.
	CollsPerGroup []int
	// NumGPUs is the total GPU count.
	NumGPUs int
	// DisorderProb is the per-collective probability of disordered
	// invocation on a GPU.
	DisorderProb float64
	// SyncProb is the per-event probability of a GPU synchronization
	// (Synchronization model only).
	SyncProb float64
	// Rounds is the number of independent rounds to simulate.
	Rounds int
	// Seed drives all randomness; same seed, same ratios.
	Seed int64
}

// Validate checks structural consistency.
func (c Config) Validate() error {
	if len(c.Groups) == 0 || len(c.Groups) != len(c.CollsPerGroup) {
		return fmt.Errorf("deadlocksim: %d groups with %d collective counts", len(c.Groups), len(c.CollsPerGroup))
	}
	if c.Rounds < 1 {
		return fmt.Errorf("deadlocksim: rounds = %d", c.Rounds)
	}
	if !(c.DisorderProb >= 0 && c.DisorderProb <= 1 && c.SyncProb >= 0 && c.SyncProb <= 1) {
		return fmt.Errorf("deadlocksim: disorder probability %v and sync probability %v must lie in [0,1]", c.DisorderProb, c.SyncProb)
	}
	for gi, g := range c.Groups {
		if len(g) == 0 {
			return fmt.Errorf("deadlocksim: group %d empty", gi)
		}
		if c.CollsPerGroup[gi] < 0 {
			return fmt.Errorf("deadlocksim: group %d has %d collectives", gi, c.CollsPerGroup[gi])
		}
		for i, gpu := range g {
			if gpu < 0 || gpu >= c.NumGPUs {
				return fmt.Errorf("deadlocksim: group %d references GPU %d (have %d)", gi, gpu, c.NumGPUs)
			}
			// A GPU listed twice could never bring the group's
			// collectives to their member count.
			if slices.Contains(g[:i], gpu) {
				return fmt.Errorf("deadlocksim: group %d lists GPU %d twice", gi, gpu)
			}
		}
	}
	return nil
}

// ThreeD builds the 3D-hybrid grouping of Fig. 3: GPU index layout is
// TP-fastest (Megatron order); every GPU belongs to exactly one TP
// group (tpColls collectives) and one DP group (dpColls collectives).
// PP communication is point-to-point and therefore outside the
// collective deadlock model, matching the paper's group counts
// (e.g. (4,4,4) -> 32 groups over 64 GPUs).
func ThreeD(tp, dp, pp, tpColls, dpColls int) ([][]int, []int, int) {
	numGPUs := tp * dp * pp
	var groups [][]int
	var colls []int
	// TP groups: tp consecutive GPUs.
	for base := 0; base < numGPUs; base += tp {
		g := make([]int, tp)
		for i := range g {
			g[i] = base + i
		}
		groups = append(groups, g)
		colls = append(colls, tpColls)
	}
	// DP groups: same (tpIdx, ppIdx), varying dpIdx.
	for ppIdx := 0; ppIdx < pp; ppIdx++ {
		for tpIdx := 0; tpIdx < tp; tpIdx++ {
			g := make([]int, dp)
			for dpIdx := 0; dpIdx < dp; dpIdx++ {
				g[dpIdx] = (ppIdx*dp+dpIdx)*tp + tpIdx
			}
			groups = append(groups, g)
			colls = append(colls, dpColls)
		}
	}
	return groups, colls, numGPUs
}

// FreeGrouping builds the paper's free-grouping cases: nSmall groups of
// smallSize GPUs and nBig groups of bigSize GPUs over numGPUs GPUs,
// with membership assigned by a seeded shuffle so GPUs belong to
// varying numbers of groups (one to five in the (32,64) case). Half the
// groups get collsA collectives, half collsB.
func FreeGrouping(nSmall, smallSize, nBig, bigSize, numGPUs, collsA, collsB int, seed int64) ([][]int, []int) {
	rng := rand.New(rand.NewSource(seed))
	var groups [][]int
	var colls []int
	mk := func(size int) {
		perm := rng.Perm(numGPUs)
		g := append([]int(nil), perm[:size]...)
		groups = append(groups, g)
	}
	for i := 0; i < nSmall; i++ {
		mk(smallSize)
	}
	for i := 0; i < nBig; i++ {
		mk(bigSize)
	}
	for i := range groups {
		if i%2 == 0 {
			colls = append(colls, collsA)
		} else {
			colls = append(colls, collsB)
		}
	}
	return groups, colls
}

// Result summarizes one configuration's simulation.
type Result struct {
	Config    Config
	Deadlocks int
	Rounds    int
	// SkippedClean counts rounds proven deadlock-free without
	// simulation (no disorder event, or no sync event in the sync
	// model): consistent invocation order cannot produce circular
	// collective dependency.
	SkippedClean int
}

// Ratio returns the deadlock ratio.
func (r Result) Ratio() float64 { return float64(r.Deadlocks) / float64(r.Rounds) }

// binomial samples the number of successes out of n trials with
// probability p, using a Poisson approximation for the small-p regime
// the simulator operates in (np << n) and exact sampling for tiny n.
func binomial(rng *rand.Rand, n int, p float64) int {
	if p <= 0 || n <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	}
	// Poisson(np) via Knuth for small lambda, normal approx for large.
	lambda := float64(n) * p
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		acc := 1.0
		for {
			acc *= rng.Float64()
			if acc < l {
				return k
			}
			k++
			if k > n {
				return n
			}
		}
	}
	k := int(rng.NormFloat64()*math.Sqrt(lambda) + lambda + 0.5)
	if k < 0 {
		return 0
	}
	if k > n {
		return n
	}
	return k
}
