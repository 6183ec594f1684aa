package cluster

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// TestGenerateDeterministic pins satellite 2's core property: the
// generator is a pure function of its config. The same seed must
// reproduce the same trace bit for bit — that is what makes a failing
// property-sweep case reproducible from its logged seed alone.
func TestGenerateDeterministic(t *testing.T) {
	cases := []GenConfig{
		{Seed: 1, Jobs: 50},
		{Seed: 2, Jobs: 50},
		{Seed: 1, Jobs: 200, Rate: 1000, AutoAlgoFrac: 0.5},
		{Seed: 99, Jobs: 10, Kinds: []string{"dp"}, MinSize: 3, MaxSize: 3},
	}
	for _, cfg := range cases {
		a, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(%+v): %v", cfg, err)
		}
		b, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(%+v) second call: %v", cfg, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("Generate(%+v) not deterministic", cfg)
		}
	}
	// Different seeds must actually differ (same config otherwise).
	a, _ := Generate(GenConfig{Seed: 1, Jobs: 50})
	b, _ := Generate(GenConfig{Seed: 2, Jobs: 50})
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 produced identical traces")
	}
}

// TestGenerateBounds walks a table of configs and checks every drawn
// field lands inside its configured range, IDs are 1..N, and arrivals
// are strictly increasing (a Poisson process never ticks backwards).
func TestGenerateBounds(t *testing.T) {
	cases := []struct {
		name string
		cfg  GenConfig
	}{
		{"defaults", GenConfig{Seed: 3, Jobs: 300}},
		{"wide-sizes", GenConfig{Seed: 4, Jobs: 300, MinSize: 2, MaxSize: 8, MinIters: 2, MaxIters: 5}},
		{"one-kind", GenConfig{Seed: 5, Jobs: 100, Kinds: []string{"zero"}, Priorities: []int{7}}},
		{"auto-algo", GenConfig{Seed: 6, Jobs: 300, AutoAlgoFrac: 1.0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := tc.cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != tc.cfg.Jobs {
				t.Fatalf("got %d jobs, want %d", len(jobs), tc.cfg.Jobs)
			}
			kinds := make(map[string]bool, len(cfg.Kinds))
			for _, k := range cfg.Kinds {
				kinds[k] = true
			}
			pris := make(map[int]bool, len(cfg.Priorities))
			for _, p := range cfg.Priorities {
				pris[p] = true
			}
			var last sim.Duration = -1
			for i, j := range jobs {
				if j.ID != i+1 {
					t.Fatalf("job %d has ID %d", i, j.ID)
				}
				if !kinds[j.Kind] {
					t.Fatalf("job %d kind %q outside mix %v", j.ID, j.Kind, cfg.Kinds)
				}
				if j.Size < cfg.MinSize || j.Size > cfg.MaxSize {
					t.Fatalf("job %d size %d outside [%d, %d]", j.ID, j.Size, cfg.MinSize, cfg.MaxSize)
				}
				if j.Iterations < cfg.MinIters || j.Iterations > cfg.MaxIters {
					t.Fatalf("job %d iters %d outside [%d, %d]", j.ID, j.Iterations, cfg.MinIters, cfg.MaxIters)
				}
				if !pris[j.Priority] {
					t.Fatalf("job %d priority %d outside %v", j.ID, j.Priority, cfg.Priorities)
				}
				if j.Arrival <= last {
					t.Fatalf("job %d arrival %v not after %v", j.ID, j.Arrival, last)
				}
				last = j.Arrival
				if cfg.AutoAlgoFrac >= 1 && j.Algo != prim.AlgoAuto {
					t.Fatalf("job %d algo %v, want AlgoAuto at frac 1", j.ID, j.Algo)
				}
				if cfg.AutoAlgoFrac == 0 && j.Algo != prim.AlgoRing {
					t.Fatalf("job %d algo %v, want ring default", j.ID, j.Algo)
				}
			}
		})
	}
}

// TestGenerateRate checks the Poisson process hits its configured rate:
// over a long trace the mean inter-arrival gap must be within 10% of
// 1/Rate, and the kind mix within a loose uniform band.
func TestGenerateRate(t *testing.T) {
	for _, rate := range []float64{50, 200, 2000} {
		const n = 4000
		jobs, err := Generate(GenConfig{Seed: 11, Jobs: n, Rate: rate})
		if err != nil {
			t.Fatal(err)
		}
		mean := float64(jobs[n-1].Arrival) / float64(n) // gaps sum to last arrival
		want := float64(sim.Second) / rate
		if math.Abs(mean-want)/want > 0.10 {
			t.Errorf("rate %v: mean gap %.0fns, want %.0fns ±10%%", rate, mean, want)
		}
		kindCount := make(map[string]int)
		for _, j := range jobs {
			kindCount[j.Kind]++
		}
		for k, c := range kindCount {
			frac := float64(c) / n
			if frac < 0.20 || frac > 0.30 {
				t.Errorf("rate %v: kind %q fraction %.3f outside [0.20, 0.30]", rate, k, frac)
			}
		}
	}
}

// TestGenerateRejectsBadConfig covers the error path: no jobs, and the
// configs that used to come back as traces with arrivals running
// backwards from −2⁶³ ns (a NaN or vanishing rate) or with sizes and
// iteration counts wrapped past MaxInt (a default maximum overflowing).
// Run refuses an arrival before the start.
func TestGenerateRejectsBadConfig(t *testing.T) {
	for _, cfg := range []GenConfig{
		{Seed: 1, Jobs: 0},
		{Seed: 1, Jobs: -3},
		{Seed: 1, Jobs: 4, Rate: math.NaN()},
		{Seed: 1, Jobs: 4, Rate: math.Inf(1)},
		{Seed: 1, Jobs: 4, Rate: 1e-300},
		{Seed: 1, Jobs: 4, MinSize: math.MaxInt},
		{Seed: 1, Jobs: 4, MinIters: math.MaxInt - 1},
	} {
		if jobs, err := Generate(cfg); !errors.Is(err, ErrGenConfig) {
			t.Errorf("Generate(%+v) = %d jobs, %v; want ErrGenConfig", cfg, len(jobs), err)
		}
	}
	jobs := []JobSpec{{ID: 1, Kind: "dp", Size: 2, Iterations: 1, Arrival: -sim.Microsecond}}
	if _, err := Run(Config{Cluster: topo.Server3090(2), Jobs: jobs}); err == nil || !strings.Contains(err.Error(), "before the run starts") {
		t.Errorf("Run with a negative arrival: %v", err)
	}
}

// FuzzGenerate holds Generate to its contract on any seed, job count
// (at most 256), rate and size and iteration bounds: every input ends
// in an ErrGenConfig or in a trace of IDs 1..Jobs whose sizes and
// iteration counts lie within the bounds after defaults and whose
// arrivals are non-negative and non-decreasing.
//
//	go test ./internal/cluster -run '^$' -fuzz FuzzGenerate -fuzztime 10s
func FuzzGenerate(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, jobs int, rate float64, minSize, maxSize, minIters, maxIters int) {
		cfg := GenConfig{
			Seed: seed, Jobs: min(jobs, 256), Rate: rate,
			MinSize: minSize, MaxSize: maxSize, MinIters: minIters, MaxIters: maxIters,
		}
		trace, err := Generate(cfg)
		if err != nil {
			if !errors.Is(err, ErrGenConfig) {
				t.Fatalf("Generate(%+v): untyped error %v", cfg, err)
			}
			return
		}
		want, err := cfg.withDefaults()
		if err != nil || len(trace) != cfg.Jobs {
			t.Fatalf("Generate(%+v) = %d jobs, but withDefaults says %v", cfg, len(trace), err)
		}
		var last sim.Duration
		for i, j := range trace {
			switch {
			case j.ID != i+1:
				t.Fatalf("job %d has ID %d", i, j.ID)
			case j.Size < want.MinSize || j.Size > want.MaxSize:
				t.Fatalf("job %d size %d outside [%d, %d]", j.ID, j.Size, want.MinSize, want.MaxSize)
			case j.Iterations < want.MinIters || j.Iterations > want.MaxIters:
				t.Fatalf("job %d iterations %d outside [%d, %d]", j.ID, j.Iterations, want.MinIters, want.MaxIters)
			case j.Arrival < last:
				t.Fatalf("job %d arrives at %v, before %v", j.ID, j.Arrival, last)
			}
			last = j.Arrival
		}
	})
}

// TestBurstyTrace pins the figure scenario's structure: deterministic
// per seed, a low-priority size-4 burst followed by high-priority
// size-2 shorties arriving after the burst has filled the queue.
func TestBurstyTrace(t *testing.T) {
	a := BurstyTrace(42, 6, 4)
	b := BurstyTrace(42, 6, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BurstyTrace not deterministic")
	}
	if len(a) != 10 {
		t.Fatalf("got %d jobs, want 10", len(a))
	}
	for i, j := range a {
		if i < 6 {
			if j.Priority != 0 || j.Size != 4 || j.Iterations != 3 {
				t.Fatalf("burst job %d = %+v, want pri 0 size 4 iters 3", j.ID, j)
			}
		} else {
			if j.Priority != 5 || j.Size != 2 || j.Iterations != 1 {
				t.Fatalf("shorty job %d = %+v, want pri 5 size 2 iters 1", j.ID, j)
			}
			if j.Arrival < 300*sim.Microsecond {
				t.Fatalf("shorty job %d arrives at %v, before the burst window", j.ID, j.Arrival)
			}
		}
	}
}
