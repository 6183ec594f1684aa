package mem

import (
	"strings"
	"testing"

	"dfccl/internal/sim"
)

// TestConnsReuseKeepsNames: a pooled connector comes back under the name
// of the edge that takes it, the name NewEdgeConnector gives, and a pool
// builds only while it is empty.
func TestConnsReuseKeepsNames(t *testing.T) {
	var p Conns
	chunks := new(Chunks)
	a := p.Take(chunks, "coll3", "conn", 0, 1, 4)
	b := p.Take(chunks, "coll3", "conn", 1, 0, 4)
	if a.Name() != "coll3.conn0->1" || b.Name() != "coll3.conn1->0" || p.Made() != 2 {
		t.Fatalf("new connectors %q, %q, made %d", a.Name(), b.Name(), p.Made())
	}
	p.Put(a)
	p.Put(b)
	if !a.Pooled() || !b.Pooled() {
		t.Fatal("a connector put back does not report Pooled")
	}
	c := p.Take(chunks, "coll9.hier", "mesh", 4, 12, 4)
	if c != b || c.Pooled() || c.Name() != "coll9.hier.mesh4->12" {
		t.Fatalf("Take = %q (pooled %v), want the last one put, renamed coll9.hier.mesh4->12", c.Name(), c.Pooled())
	}
	if d := p.Take(chunks, "x", "conn", 0, 1, 2); d != a || len(d.slots) != 2 || p.Made() != 2 {
		t.Fatalf("Take over another slot count: %d slots, made %d", len(d.slots), p.Made())
	}
	var none *Conns
	if e := none.Take(chunks, "t", "conn", 2, 3, 4); e.Name() != "t.conn2->3" {
		t.Fatalf("nil pool built %q", e.Name())
	}
}

// TestConnsPoolAllocatesNothing: giving a connector back and taking it
// again allocates nothing.
func TestConnsPoolAllocatesNothing(t *testing.T) {
	var p Conns
	chunks := new(Chunks)
	p.Put(p.Take(chunks, "t", "conn", 0, 1, 8))
	if n := testing.AllocsPerRun(100, func() { p.Put(p.Take(chunks, "t", "conn", 1, 2, 8)) }); n != 0 {
		t.Errorf("Take+Put allocates %v times", n)
	}
}

// TestConnsPutPanicsOnBusy: Put refuses, by name, a connector with a
// chunk in flight, one a process waits on, and one already pooled.
func TestConnsPutPanicsOnBusy(t *testing.T) {
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if s, _ := r.(string); !strings.Contains(s, want) {
				t.Errorf("%s: recovered %v, want a panic naming %s", what, r, want)
			}
		}()
		f()
	}
	e := sim.NewEngine()
	var p Conns
	busy := p.Take(new(Chunks), "t", "conn", 0, 1, 2)
	busy.Write(e, []byte{1})
	mustPanic("in flight", "pooled-connector-idle", func() { p.Put(busy) })

	waited := p.Take(new(Chunks), "t", "conn", 1, 0, 2)
	e.Spawn("reader", func(proc *sim.Process) { waited.Readable().Wait(proc) })
	e.Spawn("pooler", func(proc *sim.Process) {
		proc.Sleep(1)
		mustPanic("waited on", "pooled-connector-idle", func() { p.Put(waited) })
		waited.Readable().Broadcast(proc.Engine())
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	idle := p.Take(new(Chunks), "t", "conn", 2, 0, 2)
	p.Put(idle)
	mustPanic("pooled twice", "pooled-connector-idle", func() { p.Put(idle) })
}
