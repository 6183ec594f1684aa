package core

import (
	"fmt"
	"strings"
	"testing"

	"dfccl/internal/fabric"
	"dfccl/internal/mem"
	"dfccl/internal/prim"
	"dfccl/internal/sim"
	"dfccl/internal/topo"
)

// TestCQOccupancyInvariant: Push refuses a full queue, and panics when it
// finds more CQEs than slots, which only a write behind its back can
// produce.
func TestCQOccupancyInvariant(t *testing.T) {
	q := NewCQ(CQOptimized, 2)
	if !q.Push(1) || !q.Push(2) || q.Push(3) {
		t.Fatal("a 2-slot CQ must take two CQEs and refuse the third")
	}
	q.pending = append(q.pending, 3)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "3 CQEs in 2 slots") {
			t.Fatalf("Push over an over-full CQ: recovered %v, want a panic giving occupancy and slots", r)
		}
	}()
	q.Push(4)
}

// TestCommPoolInvariants: release panics by name on a communicator whose
// connectors still hold a chunk (reset-connector-empty: the chunk's
// buffer belongs to the system-wide staging pool and would reach the
// next owner) and on one released twice (comms-accounted), and the pool
// keeps created = in use + pooled through acquire and release.
func TestCommPoolInvariants(t *testing.T) {
	c4 := topo.Server3090(4)
	pool := &commPool{net: fabric.Unshared(c4)}
	spec := prim.Spec{Kind: prim.AllReduce, Count: 64, Type: mem.Float32, Op: mem.Sum, Ranks: []int{0, 1, 2, 3}, ChunkElems: 16}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "invariant "+name) {
				t.Errorf("recovered %v, want the %s panic", r, name)
			}
		}()
		f()
	}
	a, b := pool.acquire(spec.Ranks, 1), pool.acquire(spec.Ranks, 2)
	conn := a.wirings.ExecutorFor(c4, spec, 0, nil, nil).Outs[0]
	e := sim.NewEngine()
	conn.Write(e, []byte{1})
	mustPanic("reset-connector-empty", func() { pool.release(a) })
	conn.Drain(e)
	pool.release(a)
	pool.release(b)
	a, b = pool.acquire(spec.Ranks, 3), pool.acquire(spec.Ranks, 4)
	if a == b || pool.created != 2 || pool.inUse != 2 || len(pool.free) != 0 {
		t.Fatalf("reacquired the same communicator %t; created %d, in use %d, pooled %d; want 2, 2, 0", a == b, pool.created, pool.inUse, len(pool.free))
	}
	pool.release(a)
	mustPanic("comms-accounted", func() { pool.release(a) })
}
