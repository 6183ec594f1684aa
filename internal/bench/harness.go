package bench

import (
	"errors"
	"fmt"
	"math/rand"

	"dfccl/internal/core"
	"dfccl/internal/mem"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// timeLimit bounds the virtual time of every deployment the harness
// runs. A deadlocked DFCCL system is not a pure engine deadlock — its
// pollers keep re-arming their guard timers — so the limit is what ends
// such a run, as sim.ErrTimeLimit.
const timeLimit = 7200 * sim.Second

// deployment is one DFCCL system on a fresh engine.
type deployment struct {
	e   *sim.Engine
	sys *core.System
}

// newEngine returns a fresh engine bounded by timeLimit.
func newEngine() *sim.Engine {
	e := sim.NewEngine()
	e.MaxTime = sim.Time(timeLimit)
	return e
}

func deploy(cluster *topo.Cluster, cfg core.Config) deployment {
	e := newEngine()
	return deployment{e: e, sys: core.NewSystem(e, cluster, cfg)}
}

// run executes body once per GPU of the cluster, each on its own
// process "<name>.rank<i>" with the rank's context initialized before
// and destroyed after it, and drives the simulation to completion
// (sim.Engine.RunRanks gives the error contract).
func (d deployment) run(name string, body func(p *sim.Process, rc *core.RankContext) error) error {
	return d.e.RunRanks(name, d.sys.Cluster.Size(), func(p *sim.Process, rank int) error {
		rc := d.sys.Init(p, rank)
		if err := body(p, rc); err != nil {
			return err
		}
		rc.Destroy(p)
		return nil
	})
}

// stalled reports whether err is the engine giving up on a run — a
// global deadlock or the virtual-time limit — rather than a rank's own
// failure.
func stalled(err error) bool {
	return errors.Is(err, sim.ErrDeadlock) || errors.Is(err, sim.ErrTimeLimit)
}

// seqRanks returns the rank list 0..n-1.
func seqRanks(n int) []int {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// SizeSweep returns the Fig. 8-style buffer sweep in bytes: minBytes
// (at least 1) doubled up to maxBytes.
func SizeSweep(minBytes, maxBytes int) []int {
	var out []int
	for s := minBytes; s <= maxBytes; s *= 2 {
		out = append(out, s)
		if s > maxBytes/2 { // the next doubling may overflow
			break
		}
	}
	return out
}

// HumanBytes formats a byte count the way NCCL-Tests does.
func HumanBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dK", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// newSeededRNG builds a deterministic RNG for workload synthesis.
func newSeededRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// zeroBuf returns an empty buffer for timing-only collectives.
func zeroBuf() *mem.Buffer { return mem.NewBuffer(mem.Float32, 0) }
