package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dfccl/internal/prim"
	"dfccl/internal/sim"
)

// GenConfig parameterizes the seeded workload generator. Arrivals are
// Poisson: inter-arrival gaps are exponential with mean 1/Rate. Kind,
// size, priority, and iteration count are drawn independently per job.
// The same seed always produces the same trace.
type GenConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Jobs is the trace length.
	Jobs int
	// Rate is the mean arrival rate in jobs per virtual second
	// (default 200 — bursty relative to multi-hundred-µs jobs).
	Rate float64
	// Kinds is the job mix, drawn uniformly (default all four kinds).
	Kinds []string
	// MinSize and MaxSize bound the per-job rank count, drawn
	// uniformly (defaults 2 and 4).
	MinSize, MaxSize int
	// MinIters and MaxIters bound the iteration count, drawn uniformly
	// (defaults 1 and 3).
	MinIters, MaxIters int
	// Priorities is the priority distribution, drawn uniformly
	// (default {0, 1, 2}).
	Priorities []int
	// AutoAlgoFrac is the fraction of jobs opened under prim.AlgoAuto
	// instead of the ring default (default 0).
	AutoAlgoFrac float64
}

// ErrGenConfig is the error Generate wraps when it rejects a config.
var ErrGenConfig = errors.New("cluster: bad generator config")

// withDefaults fills unset fields; it fails on a non-finite rate and on
// a bound whose default would overflow.
func (g GenConfig) withDefaults() (GenConfig, error) {
	if math.IsNaN(g.Rate) || math.IsInf(g.Rate, 0) {
		return g, fmt.Errorf("%w: rate %v", ErrGenConfig, g.Rate)
	}
	if g.Rate <= 0 {
		g.Rate = 200
	}
	if len(g.Kinds) == 0 {
		g.Kinds = []string{"dp", "moe", "zero", "hybrid"}
	}
	if g.MinSize <= 0 {
		g.MinSize = 2
	}
	if g.MaxSize < g.MinSize {
		if g.MinSize > math.MaxInt-2 {
			return g, fmt.Errorf("%w: MinSize %d leaves no room for the default MaxSize", ErrGenConfig, g.MinSize)
		}
		g.MaxSize = g.MinSize + 2
	}
	if g.MinIters <= 0 {
		g.MinIters = 1
	}
	if g.MaxIters < g.MinIters {
		if g.MinIters > math.MaxInt-2 {
			return g, fmt.Errorf("%w: MinIters %d leaves no room for the default MaxIters", ErrGenConfig, g.MinIters)
		}
		g.MaxIters = g.MinIters + 2
	}
	if len(g.Priorities) == 0 {
		g.Priorities = []int{0, 1, 2}
	}
	return g, nil
}

// Generate produces a deterministic Poisson arrival trace: same config,
// same trace, bit for bit. Job IDs are 1..Jobs in arrival order. A
// config it cannot honour — no jobs, a non-finite rate, a rate so low
// the arrivals overflow sim.Duration, a bound whose default overflows —
// is an error wrapping ErrGenConfig.
func Generate(cfg GenConfig) ([]JobSpec, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.Jobs <= 0 {
		return nil, fmt.Errorf("%w: Generate needs a positive job count, got %d", ErrGenConfig, cfg.Jobs)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	jobs := make([]JobSpec, 0, cfg.Jobs)
	var at sim.Duration
	for i := 0; i < cfg.Jobs; i++ {
		// Exponential inter-arrival with mean 1/Rate seconds.
		gap := rng.ExpFloat64() / cfg.Rate * float64(sim.Second)
		if !(gap < math.MaxInt64) || sim.Duration(gap) > math.MaxInt64-at {
			return nil, fmt.Errorf("%w: rate %v: job %d arrives after the last representable instant", ErrGenConfig, cfg.Rate, i+1)
		}
		at += sim.Duration(gap)
		algo := prim.AlgoRing
		if cfg.AutoAlgoFrac > 0 && rng.Float64() < cfg.AutoAlgoFrac {
			algo = prim.AlgoAuto
		}
		jobs = append(jobs, JobSpec{
			ID:         i + 1,
			Kind:       cfg.Kinds[rng.Intn(len(cfg.Kinds))],
			Size:       cfg.MinSize + rng.Intn(cfg.MaxSize-cfg.MinSize+1),
			Priority:   cfg.Priorities[rng.Intn(len(cfg.Priorities))],
			Iterations: cfg.MinIters + rng.Intn(cfg.MaxIters-cfg.MinIters+1),
			Layers:     1 + rng.Intn(2),
			Algo:       algo,
			Arrival:    at,
		})
	}
	return jobs, nil
}

// BurstyTrace builds the figure's deterministic priority-inversion
// scenario: a burst of low-priority long jobs arrives almost at once
// and fills every admission slot, then short high-priority jobs arrive
// while the burst drains. Under FIFO the high-priority jobs queue
// behind the whole burst; a priority policy jumps them to the head —
// the p99 sojourn gap between the two is the gate.
func BurstyTrace(seed int64, lowJobs, highJobs int) []JobSpec {
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{"dp", "zero", "hybrid", "moe"}
	var jobs []JobSpec
	id := 1
	var at sim.Duration
	for i := 0; i < lowJobs; i++ {
		at += sim.Duration(rng.Intn(5)+1) * sim.Microsecond
		jobs = append(jobs, JobSpec{
			ID: id, Kind: kinds[rng.Intn(len(kinds))], Size: 4,
			Priority: 0, Iterations: 3, Layers: 2, Arrival: at,
		})
		id++
	}
	// High-priority shorties arrive while the burst is being served.
	hiAt := 300 * sim.Microsecond
	for i := 0; i < highJobs; i++ {
		hiAt += sim.Duration(rng.Intn(40)+10) * sim.Microsecond
		jobs = append(jobs, JobSpec{
			ID: id, Kind: kinds[rng.Intn(len(kinds))], Size: 2,
			Priority: 5, Iterations: 1, Layers: 1, Arrival: hiAt,
		})
		id++
	}
	return jobs
}
