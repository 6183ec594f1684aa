package prim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"dfccl/internal/mem"
)

// TestSameMatchesFingerprint: a.Same(b) holds exactly when the specs
// print alike, every field in fmt's %v — over random pairs drawn from a
// small space (so some collide), a spec and its deep copy, nil against
// empty slices, and a change of each single field — and Same allocates
// nothing.
func TestSameMatchesFingerprint(t *testing.T) {
	fingerprint := func(s Spec) string {
		return fmt.Sprintf("%d|%d|%d|%d|%d|%d|%d|%t|%v|%v",
			int(s.Kind), int(s.Algo), s.Count, int(s.Type), int(s.Op), s.Root, s.ChunkElems, s.TimingOnly, s.Ranks, s.Counts)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	ints := func(n int) []int {
		if n == 0 && rng.IntN(2) == 0 {
			return nil
		}
		v := make([]int, n)
		for i := range v {
			v[i] = rng.IntN(3)
		}
		return v
	}
	random := func() Spec {
		s := Spec{
			Kind: Kind(rng.IntN(2)), Algo: Algorithm(rng.IntN(2)), Count: rng.IntN(2), Type: mem.DataType(rng.IntN(2)),
			Op: mem.ReduceOp(rng.IntN(2)), Root: rng.IntN(2), ChunkElems: rng.IntN(2), TimingOnly: rng.IntN(2) == 0,
			Ranks: ints(rng.IntN(3)),
		}
		for range rng.IntN(3) {
			s.Counts = append(s.Counts, ints(rng.IntN(3)))
		}
		return s
	}
	clone := func(s Spec) Spec {
		s.Ranks = slices.Clone(s.Ranks)
		s.Counts = slices.Clone(s.Counts)
		for i, row := range s.Counts {
			s.Counts[i] = slices.Clone(row)
		}
		return s
	}
	// Each mutation changes exactly one field; the last two leave the
	// identity alone (nil and empty slices print alike).
	mutations := []func(*Spec){
		func(s *Spec) { s.Kind++ },
		func(s *Spec) { s.Algo++ },
		func(s *Spec) { s.Count++ },
		func(s *Spec) { s.Type++ },
		func(s *Spec) { s.Op++ },
		func(s *Spec) { s.Root++ },
		func(s *Spec) { s.ChunkElems++ },
		func(s *Spec) { s.TimingOnly = !s.TimingOnly },
		func(s *Spec) { s.Ranks = append(s.Ranks, 0) },
		func(s *Spec) {
			if len(s.Ranks) > 0 {
				s.Ranks[rng.IntN(len(s.Ranks))] += 1 + rng.IntN(2)
			}
		},
		func(s *Spec) { s.Counts = append(s.Counts, nil) },
		func(s *Spec) {
			if len(s.Counts) > 0 {
				i := rng.IntN(len(s.Counts))
				s.Counts[i] = append(s.Counts[i], 0)
			}
		},
		func(s *Spec) {
			if len(s.Ranks) == 0 {
				s.Ranks = []int{}
			}
		},
		func(s *Spec) {
			for i, row := range s.Counts {
				if len(row) == 0 {
					s.Counts[i] = nil
				}
			}
		},
	}
	check := func(a, b Spec) {
		t.Helper()
		if same, fp := a.Same(b), fingerprint(a) == fingerprint(b); same != fp {
			t.Fatalf("Same = %v but fingerprints equal = %v:\n%q\n%q", same, fp, fingerprint(a), fingerprint(b))
		}
	}
	for range 2000 {
		a := random()
		check(a, clone(a))
		check(a, random())
		for _, m := range mutations {
			b := clone(a)
			m(&b)
			check(a, b)
			check(b, a)
		}
	}
	a := random()
	b := clone(a)
	if allocs := testing.AllocsPerRun(100, func() { _ = a.Same(b) }); allocs != 0 {
		t.Fatalf("Same allocates %v times per call", allocs)
	}
}
