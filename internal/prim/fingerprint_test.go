package prim

import (
	"fmt"
	"testing"

	"dfccl/internal/mem"
)

// TestFingerprintMatchesSprintf: Fingerprint builds by hand, byte for byte,
// the string fmt used to print, so collective IDs and pool keys derived
// from it do not move.
func TestFingerprintMatchesSprintf(t *testing.T) {
	specs := []Spec{
		{},
		{Kind: AllReduce, Count: 1024, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 1, 2, 3}},
		{Kind: Broadcast, Algo: AlgoHierarchical, Count: 7, Type: mem.Float64, Op: mem.Max, Root: 2, Ranks: []int{5, 3, 11}, ChunkElems: 64, TimingOnly: true},
		{Kind: Reduce, Count: -1, Root: -3, Ranks: []int{-2}, ChunkElems: -8},
		{Kind: AllToAllv, Ranks: []int{0, 1}, Counts: [][]int{{1, 2}, {3, 4}}},
		{Kind: AllToAllv, Ranks: []int{}, Counts: [][]int{}},
		{Kind: AllToAllv, Ranks: []int{4}, Counts: [][]int{nil}},
		{Kind: AllToAllv, Ranks: []int{0, 1, 2}, Counts: [][]int{{}, {7}, nil, {1, 22, 333, 4444}}},
		{Kind: AllToAllv, Algo: AlgoAuto, Ranks: make([]int, 100), Counts: [][]int{make([]int, 100), make([]int, 100)}},
	}
	for _, s := range specs {
		want := fmt.Sprintf("%d|%d|%d|%d|%d|%d|%d|%t|%v|%v",
			int(s.Kind), int(s.Algo), s.Count, int(s.Type), int(s.Op), s.Root, s.ChunkElems, s.TimingOnly, s.Ranks, s.Counts)
		if got := s.Fingerprint(); got != want {
			t.Errorf("Fingerprint = %q\n     Sprintf = %q", got, want)
		}
	}
}
