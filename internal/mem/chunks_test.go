package mem

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"
	"unsafe"

	"dfccl/internal/sim"
)

// FuzzChunks drives seeded Write/Read/Drain/Settle scripts over one to
// four connectors sharing one pool, written by one writer that lends
// chunks of 0–3000 bytes out of one 8 KiB memory and overwrites ranges of
// it, settling them first, as an executor does its working buffer. Every
// script step is three bytes: the operation and connector, then a 16-bit
// value that sets the size and offset of the chunk or range. After every
// step it checks the pool against the rings:
//
//   - every Read returns exactly the bytes written, as they were at
//     Write, in FIFO order, however the memory changed since;
//   - a lent slot holds a view of the writer's memory, never of length
//     zero; a staged slot holds a pool buffer;
//   - no buffer is both in a slot and in the pool, or in two places of
//     either (pointer identity);
//   - each connector conserves bytes: written = read + scrubbed +
//     pending;
//   - per capacity class, the buffers in slots and pool together number
//     exactly the most staged chunks of that class ever in flight at
//     once, so Made never exceeds the peak of staged chunks.
func FuzzChunks(f *testing.F) {
	f.Add(uint8(1), []byte{0, 0, 64, 2, 0, 0})
	f.Add(uint8(1), []byte{0, 0, 64, 0, 0, 64, 5, 0, 0, 2, 0, 0, 0, 0, 64})
	f.Add(uint8(2), []byte{0, 3, 232, 4, 11, 184, 2, 0, 0, 3, 0, 0, 9, 0, 7, 7, 0, 0})
	f.Add(uint8(4), bytes.Repeat([]byte{0, 1, 0, 9, 2, 255, 4, 0, 9, 2, 0, 0, 15, 0, 0}, 12))
	f.Add(uint8(3), []byte{0, 0, 0, 8, 0, 1, 4, 0, 1, 2, 0, 0, 3, 0, 0, 8, 4, 0, 9, 2, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, nconn uint8, script []byte) {
		n := int(nconn)%4 + 1
		pool := new(Chunks)
		conns := make([]*Connector, n)
		want := make([][][]byte, n) // each ring's pending chunks as written, oldest first
		for i := range conns {
			conns[i] = NewEdgeConnector(pool, "f", "conn", i, (i+1)%n, 4)
		}
		memory := make([]byte, 8<<10)
		var peak [bits.UintSize]int
		writes := 0
		e := sim.NewEngine() // no process waits on a connector, so none is needed
		for len(script) >= 3 {
			op, i, v := script[0]%8, int(script[0]>>3)%n, int(script[1])<<8|int(script[2])
			size := v % 3001
			off := v * 131 % (len(memory) - size + 1)
			script = script[3:]
			c := conns[i]
			switch {
			case op <= 1 && c.CanWrite(): // lend
				chunk := memory[off : off+size]
				c.Write(e, chunk)
				want[i] = append(want[i], bytes.Clone(chunk))
			case (op == 2 || op == 6) && c.CanRead():
				if got := c.Read(e); !bytes.Equal(got, want[i][0]) {
					t.Fatalf("conn %d: read %d bytes, not the %d written", i, len(got), len(want[i][0]))
				}
				want[i] = want[i][1:]
			case op == 3:
				c.Drain(e)
				want[i] = nil
			case op == 4 || op == 7: // overwrite a range of the memory
				dst := memory[off : off+size]
				for _, c := range conns {
					c.Settle(dst)
				}
				for j := range dst {
					dst[j] = byte(writes*31 + j*7)
				}
				writes++
			case op == 5:
				c.Settle(nil)
			}
			checkPool(t, pool, conns, memory, &peak)
		}
		for _, c := range conns {
			c.Drain(e)
			c.Reset()
		}
		checkPool(t, pool, conns, memory, &peak)
	})
}

// checkPool checks FuzzChunks' invariants over pool and the connectors
// sharing it, whose lent chunks are views of memory, raising peak[k] to
// the staged chunks of class k now in flight.
func checkPool(t *testing.T, pool *Chunks, conns []*Connector, memory []byte, peak *[bits.UintSize]int) {
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
			slot := s % uint64(len(c.slots))
			buf := c.slots[slot]
			pending += uint64(len(buf))
			if c.lent&(1<<slot) != 0 {
				if lo := len(memory) - cap(buf); len(buf) == 0 || lo < 0 || &memory[lo] != &buf[0] {
					t.Fatalf("conn %d: lent slot %d holds %d bytes outside the writer's memory", i, slot, len(buf))
				}
				continue
			}
			see(buf, i)
			if cap(buf) > 0 {
				held[bits.Len(uint(cap(buf)))-1]++
			}
		}
		if c.written != c.read+c.scrubbed+pending {
			t.Fatalf("conn %d: written %d != read %d + scrubbed %d + pending %d", i, c.written, c.read, c.scrubbed, pending)
		}
	}
	made := 0
	for k := range total {
		made += total[k]
		peak[k] = max(peak[k], held[k])
		if total[k] != peak[k] {
			t.Fatalf("class %d: %d buffers exist, but at most %d were ever staged in flight at once", k, total[k], peak[k])
		}
	}
	if pool.Made() != made {
		t.Fatalf("the pool made %d buffers, but %d exist", pool.Made(), made)
	}
}
