package mem

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"
	"unsafe"

	"dfccl/internal/sim"
)

// FuzzChunks drives seeded Write/Read/Drain scripts over one to four
// connectors sharing one pool, with chunk sizes 0–3000 bytes. Every
// script step is three bytes: the operation and connector, then the
// size. After every step it checks the pool against the rings:
//
//   - every Read returns exactly the bytes written, in FIFO order;
//   - no buffer is both in a slot and in the pool, or in two places of
//     either (pointer identity);
//   - each connector conserves bytes: written = read + scrubbed +
//     pending;
//   - per capacity class, the buffers in slots and pool together number
//     exactly the most chunks of that class ever in flight at once.
func FuzzChunks(f *testing.F) {
	f.Add(uint8(1), []byte{0, 0, 64, 2, 0, 0})
	f.Add(uint8(1), []byte{0, 0, 64, 0, 0, 64, 2, 0, 0, 2, 0, 0, 0, 0, 64})
	f.Add(uint8(2), []byte{0, 3, 232, 1, 11, 184, 2, 0, 0, 3, 0, 0, 1, 0, 7, 7, 0, 0})
	f.Add(uint8(4), bytes.Repeat([]byte{0, 1, 0, 9, 2, 255, 2, 0, 0, 15, 0, 0}, 12))
	f.Add(uint8(3), []byte{0, 0, 0, 1, 0, 1, 2, 0, 0, 3, 0, 0, 8, 4, 0, 9, 2, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, nconn uint8, script []byte) {
		n := int(nconn)%4 + 1
		pool := new(Chunks)
		conns := make([]*Connector, n)
		want := make([][][]byte, n) // each ring's pending chunks, oldest first
		for i := range conns {
			conns[i] = NewEdgeConnector(pool, "f", "conn", i, (i+1)%n, 4)
		}
		var peak [bits.UintSize]int
		writes := 0
		e := sim.NewEngine() // no process waits on a connector, so none is needed
		for len(script) >= 3 {
			op, i, size := script[0]%4, int(script[0]>>2)%n, (int(script[1])<<8|int(script[2]))%3001
			script = script[3:]
			c := conns[i]
			switch {
			case op <= 1 && c.CanWrite():
				chunk := make([]byte, size)
				for j := range chunk {
					chunk[j] = byte(writes*31 + j*7)
				}
				writes++
				c.Write(e, chunk)
				want[i] = append(want[i], chunk)
			case op == 2 && c.CanRead():
				if got := c.Read(e); !bytes.Equal(got, want[i][0]) {
					t.Fatalf("conn %d: read %d bytes, not the %d written", i, len(got), len(want[i][0]))
				}
				want[i] = want[i][1:]
			case op == 3:
				c.Drain(e)
				want[i] = nil
			}
			checkPool(t, pool, conns, &peak)
		}
		for _, c := range conns {
			c.Drain(e)
			c.Reset()
		}
		checkPool(t, pool, conns, &peak)
	})
}

// checkPool checks FuzzChunks' invariants over pool and the connectors
// sharing it, raising peak[k] to the chunks of class k now in flight.
func checkPool(t *testing.T, pool *Chunks, conns []*Connector, peak *[bits.UintSize]int) {
	t.Helper()
	var seen []*byte
	var total, held [bits.UintSize]int
	// see counts buf, pooled when conn is -1, else in that connector.
	see := func(buf []byte, conn int) {
		if cap(buf) == 0 {
			return
		}
		k := bits.Len(uint(cap(buf))) - 1
		if cap(buf) != 1<<k {
			t.Fatalf("conn %d (-1: pooled): buffer of capacity %d is not a pool class", conn, cap(buf))
		}
		if slices.Contains(seen, unsafe.SliceData(buf)) {
			t.Fatalf("conn %d (-1: pooled): a buffer is also in another slot or on a free list", conn)
		}
		seen = append(seen, unsafe.SliceData(buf))
		total[k]++
	}
	for k, free := range pool.free {
		for _, buf := range free {
			if bits.Len(uint(cap(buf)))-1 != k {
				t.Fatalf("capacity %d buffer on class %d's free list", cap(buf), k)
			}
			see(buf, -1)
		}
	}
	for i, c := range conns {
		var pending uint64
		for s := c.head; s < c.tail; s++ {
			buf := c.slots[s%uint64(len(c.slots))]
			pending += uint64(len(buf))
			see(buf, i)
			if cap(buf) > 0 {
				held[bits.Len(uint(cap(buf)))-1]++
			}
		}
		if c.written != c.read+c.scrubbed+pending {
			t.Fatalf("conn %d: written %d != read %d + scrubbed %d + pending %d", i, c.written, c.read, c.scrubbed, pending)
		}
	}
	for k := range total {
		peak[k] = max(peak[k], held[k])
		if total[k] != peak[k] {
			t.Fatalf("class %d: %d buffers exist, but at most %d were ever in flight at once", k, total[k], peak[k])
		}
	}
}
