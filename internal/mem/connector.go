package mem

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"unsafe"

	"dfccl/internal/sim"
)

// Connector is the lock-free ring buffer used for inter-GPU data
// transfer (Fig. 5 of the paper). The sender's "send connector" and the
// receiver's "recv connector" are the same object viewed from the two
// ends. Slots carry whole chunks.
//
// The key property the paper exploits for preemption (Sec. 4.1) holds by
// construction: once a chunk is written to a slot it remains visible to
// the peer even if the writer is preempted immediately afterwards, and
// regardless of whether the reader is currently scheduled.
//
// A chunk is lent, not copied: Write keeps a view of the writer's memory,
// and the writer keeps those bytes as they are until the chunk is read or
// it calls Settle, which stages the chunks it is about to overwrite into
// buffers of the connector's Chunks pool. Every connector of one
// simulation shares the pool: a staged chunk's buffer goes back to it on
// Read or Drain, so a steady stream of chunks allocates nothing, however
// the rings that carry it back up. See Read for the lifetime this gives a
// chunk.
type Connector struct {
	// name is the connector's name or, when kind is set, the tag of a
	// wiring's edge from rank from to rank to, which Name formats only
	// when asked.
	name     string
	kind     string
	from, to int
	slots    [][]byte
	// head counts consumed chunks, tail counts produced chunks;
	// tail-head is the number of readable slots.
	head, tail uint64
	// lent has bit i set while slot i holds a view of the writer's
	// memory rather than a pool buffer.
	lent uint64
	// sums[i] is the FNV-64a of slot i's chunk at Write: the invariant
	// lent-chunk-stable, checked at Read, in lentcheck builds only.
	sums []uint64

	// pool supplies the buffers Settle stages into and takes back the
	// ones Read and Drain free.
	pool *Chunks

	// Bytes written by Write, handed out by Read, and discarded by Drain.
	// Whenever nothing is pending, written == read + scrubbed.
	written, read, scrubbed uint64

	readable sim.Cond // signalled on write
	writable sim.Cond // signalled on read

	// next links an idle connector into its Conns pool: the next idle
	// one, or poolEnd after the last; nil while the connector is in use.
	next *Connector
}

// NewConnector creates a connector with the given number of ring slots
// and a Chunks pool of its own.
func NewConnector(name string, slots int) *Connector {
	return newConnector(new(Chunks), name, slots)
}

func newConnector(pool *Chunks, name string, slots int) *Connector {
	if slots < 1 || slots > 64 {
		panic("mem: connector needs one to 64 slots")
	}
	return &Connector{name: name, slots: make([][]byte, slots), pool: pool}
}

// NewEdgeConnector creates the connector of a wiring's edge from rank
// from to rank to, staging its chunks in pool, named
// "<tag>.<kind><from>-><to>": the connector of NewEdgeConnector(pool,
// "coll3", "conn", 0, 1, slots) is "coll3.conn0->1". Building it
// formats nothing; Name does.
func NewEdgeConnector(pool *Chunks, tag, kind string, from, to, slots int) *Connector {
	c := newConnector(pool, tag, slots)
	c.kind, c.from, c.to = kind, from, to
	return c
}

// Name returns the diagnostic name.
func (c *Connector) Name() string {
	if c.kind == "" {
		return c.name
	}
	return fmt.Sprintf("%s.%s%d->%d", c.name, c.kind, c.from, c.to)
}

// Pending returns the number of written-but-unread chunks.
func (c *Connector) Pending() int { return int(c.tail - c.head) }

// Lent returns the number of pending chunks that are still lent, not
// staged.
func (c *Connector) Lent() int { return bits.OnesCount64(c.lent) }

// CanWrite reports whether a slot is free for the producer.
func (c *Connector) CanWrite() bool { return c.tail-c.head < uint64(len(c.slots)) }

// CanRead reports whether a chunk is available for the consumer.
func (c *Connector) CanRead() bool { return c.tail > c.head }

// Write deposits a chunk into the next slot. The caller must have
// checked CanWrite; Write panics otherwise, because a real ring buffer
// overrun would corrupt data. The chunk is lent, not copied: the slot
// keeps a view of the caller's memory, which the caller must not change
// until the chunk is read or Settle has staged it.
func (c *Connector) Write(e *sim.Engine, chunk []byte) {
	if !c.CanWrite() {
		panic(fmt.Sprintf("mem: connector %s overrun", c.Name()))
	}
	i := c.tail % uint64(len(c.slots))
	if len(chunk) == 0 {
		// A zero-length view still has capacity: stored as it is, Read
		// would hand the writer's memory to the pool.
		chunk = nil
	} else {
		c.lent |= 1 << i
	}
	if lentChecking {
		if c.sums == nil {
			c.sums = make([]uint64, len(c.slots))
		}
		c.sums[i] = fnv64a(chunk)
	}
	c.slots[i] = chunk
	c.tail++
	c.written += uint64(len(chunk))
	c.readable.Broadcast(e)
}

// Settle stages every unread lent chunk that overlaps dst into a buffer of
// the pool, so that the writer may overwrite dst; Settle(nil) stages all
// of them. The writer settles before each write into memory it may have
// lent, and settles everything before it hands its memory back to its
// owner.
func (c *Connector) Settle(dst []byte) {
	d := uintptr(unsafe.Pointer(unsafe.SliceData(dst)))
	for lent := c.lent; lent != 0; lent &= lent - 1 {
		i := bits.TrailingZeros64(lent)
		chunk := c.slots[i] // never empty: Write stores those as nil
		if p := uintptr(unsafe.Pointer(&chunk[0])); dst != nil && (p >= d+uintptr(len(dst)) || d >= p+uintptr(len(chunk))) {
			continue // no overlap
		}
		buf := c.pool.take(len(chunk))
		copy(buf, chunk)
		c.slots[i] = buf
		c.lent &^= 1 << i
	}
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Read consumes the oldest chunk. The caller must have checked CanRead.
//
// The returned bytes are valid until the caller next yields to the
// engine (Sleep, a Cond wait, returning from the process body) or
// itself writes to a connector on the same pool: a staged chunk's buffer
// is back in the pool from this instant, and the next Settle anywhere in
// the simulation may stage its chunk into the same memory; a lent chunk
// is the writer's memory, which the writer may overwrite once it runs.
// No other process can run before the caller yields. A caller that needs
// the data later copies it out first.
func (c *Connector) Read(e *sim.Engine) []byte {
	if !c.CanRead() {
		panic(fmt.Sprintf("mem: connector %s underrun", c.Name()))
	}
	i := c.head % uint64(len(c.slots))
	chunk := c.slots[i]
	if lentChecking && fnv64a(chunk) != c.sums[i] {
		panic(fmt.Sprintf("mem: invariant lent-chunk-stable: connector %s: the %d-byte chunk of slot %d changed between Write and Read",
			c.Name(), len(chunk), i))
	}
	c.slots[i] = nil
	c.head++
	c.read += uint64(len(chunk))
	if c.lent&(1<<i) == 0 {
		c.pool.put(chunk) // a lent chunk is the writer's
	}
	c.lent &^= 1 << i
	c.writable.Broadcast(e)
	return chunk
}

// Readable returns the condition signalled when a chunk arrives.
func (c *Connector) Readable() *sim.Cond { return &c.readable }

// Writable returns the condition signalled when a slot frees up.
func (c *Connector) Writable() *sim.Cond { return &c.writable }

// Drain discards all in-flight chunks, returning the staged ones' buffers
// to the pool, and wakes any writer blocked on a full ring. This is the
// abort path for elastic membership: when a rank is lost mid-collective,
// chunks it deposited (or never consumed) are garbage to the next owner,
// so the communicator pool scrubs the connector before reuse instead of
// tripping Reset's in-flight panic.
func (c *Connector) Drain(e *sim.Engine) {
	for i, chunk := range c.slots {
		c.scrubbed += uint64(len(chunk))
		if c.lent&(1<<i) == 0 {
			c.pool.put(chunk)
		}
		c.slots[i] = nil
	}
	c.lent = 0
	c.head = c.tail
	c.checkBytes()
	c.writable.Broadcast(e)
}

// Reset checks that the connector is fit for a new collective: it
// panics if chunks are still in flight — a stale chunk would pin pool
// memory and reach the next owner — or if a byte went missing.
func (c *Connector) Reset() {
	if c.Pending() != 0 {
		panic(fmt.Sprintf("mem: invariant reset-connector-empty: connector %s has %d in-flight chunks", c.Name(), c.Pending()))
	}
	c.checkBytes()
}

// checkBytes asserts the byte-conservation invariant of an empty ring:
// every byte written was either read or scrubbed.
func (c *Connector) checkBytes() {
	if c.written != c.read+c.scrubbed {
		panic(fmt.Sprintf("mem: invariant connector-bytes-conserved: connector %s lost bytes: written %d != read %d + scrubbed %d",
			c.Name(), c.written, c.read, c.scrubbed))
	}
}

// Chunks is a staging pool for connector chunks: a free list of chunk
// buffers per power-of-two capacity class. Connectors that share a pool
// share its buffers, so a buffer any Read frees serves the next Settle
// on any of them. A pool keeps every buffer it is given back and frees
// none, but it only makes a buffer when its class's free list is empty:
// it holds at most the peak number of staged chunks of each class that
// were in flight at once. Lent chunks are never its buffers. The zero
// value is an empty pool.
type Chunks struct {
	// free[k] holds buffers of capacity 1<<k.
	free [bits.UintSize][][]byte
	made int
}

// Made reports how many buffers the pool has made: over all classes,
// the sum of the most staged chunks of a class ever in flight at once.
func (p *Chunks) Made() int { return p.made }

// take returns an n-byte buffer: a free one of n's class, or a new one
// with that class's capacity. Zero-byte chunks (a timing-only
// collective's) need no memory.
func (p *Chunks) take(n int) []byte {
	if n == 0 {
		return nil
	}
	k := bits.Len(uint(n - 1))
	free := p.free[k]
	if len(free) == 0 {
		p.made++
		return make([]byte, n, 1<<k)
	}
	buf := free[len(free)-1]
	free[len(free)-1] = nil
	p.free[k] = free[:len(free)-1]
	return buf[:n]
}

// put returns a buffer take made to its class's free list. The list's
// storage is made once, on the class's first put, so that a cold run
// does not pay for its growth from empty.
func (p *Chunks) put(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	k := bits.Len(uint(cap(buf))) - 1
	if p.free[k] == nil {
		p.free[k] = make([][]byte, 0, 16)
	}
	p.free[k] = append(p.free[k], buf)
}

// Conns is a pool of idle connectors: a LIFO free list linked through
// the connectors themselves, so taking and putting allocate nothing. A
// connector's only per-edge state is its name, so any idle connector
// serves any edge, and a pool holds at most the peak number of its
// connectors in use at once. The zero value is an empty pool; a nil
// *Conns pools nothing, and Take on it builds a new connector.
type Conns struct {
	idle *Connector
	made int
}

// poolEnd ends every Conns list, so that a pooled connector's next is
// never nil.
var poolEnd Connector

// Take returns a connector for the edge Take names as NewEdgeConnector
// does, staging its chunks in chunks: an idle one off the pool, renamed,
// or a new one.
func (p *Conns) Take(chunks *Chunks, tag, kind string, from, to, slots int) *Connector {
	if p == nil || p.idle == nil || p.idle == &poolEnd {
		if p != nil {
			p.made++
		}
		return NewEdgeConnector(chunks, tag, kind, from, to, slots)
	}
	c := p.idle
	p.idle, c.next = c.next, nil
	if len(c.slots) != slots {
		c.slots, c.sums = make([][]byte, slots), nil
	}
	c.pool, c.name, c.kind, c.from, c.to = chunks, tag, kind, from, to
	return c
}

// Put gives an idle connector back to the pool. It panics (invariant
// pooled-connector-idle) unless the connector holds no chunk, lends
// nothing, has conserved its bytes, has no process waiting on it and is
// not pooled already: a pooled connector goes to the next edge that
// asks.
func (p *Conns) Put(c *Connector) {
	if c.Pooled() || c.Pending() != 0 || c.lent != 0 || c.readable.Waiters() != 0 || c.writable.Waiters() != 0 {
		panic(fmt.Sprintf("mem: invariant pooled-connector-idle: connector %s put with %d in-flight chunk(s), %d lent, %d+%d waiter(s), pooled %v",
			c.Name(), c.Pending(), c.Lent(), c.readable.Waiters(), c.writable.Waiters(), c.Pooled()))
	}
	c.checkBytes()
	c.next = p.idle
	if c.next == nil {
		c.next = &poolEnd
	}
	p.idle = c
}

// Made reports how many connectors Take has built: the most of the
// pool's connectors ever in use at once.
func (p *Conns) Made() int { return p.made }

// Pooled reports whether c is idle in a Conns pool.
func (c *Connector) Pooled() bool { return c.next != nil }
