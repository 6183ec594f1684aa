package mem

import (
	"fmt"

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
// Chunk memory is recycled: Write stages into the buffer Read freed
// last, so a steady stream of equal-sized chunks allocates nothing. See
// Read for the lifetime this gives a chunk.
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

	// spare is the chunk buffer freed most recently, kept for the next
	// Write. One is all that is kept: a ring in steady state alternates
	// Read and Write, and keeping every buffer ever freed would pin a
	// backed-up ring's full depth (Cap chunks) on every connector of a
	// pooled communicator for as long as the pool lives.
	spare []byte

	// Bytes staged by Write, handed out by Read, and discarded by Drain.
	// Whenever nothing is pending, written == read + scrubbed.
	written, read, scrubbed uint64

	readable sim.Cond // signalled on write
	writable sim.Cond // signalled on read

	// Owner is the collective ID currently holding this connector, or
	// -1 when free. The daemon kernel uses it to keep other collectives
	// from corrupting a preempted collective's in-flight chunks
	// (Sec. 4.5 "prevents other collectives from using preempted,
	// uncompleted collective's connectors").
	Owner int
}

// NewConnector creates a connector with the given number of ring slots.
func NewConnector(name string, slots int) *Connector {
	if slots < 1 {
		panic("mem: connector needs at least one slot")
	}
	return &Connector{name: name, slots: make([][]byte, slots), Owner: -1}
}

// NewEdgeConnector creates the connector of a wiring's edge from rank
// from to rank to, named "<tag>.<kind><from>-><to>": the connector of
// NewEdgeConnector("coll3", "conn", 0, 1, slots) is "coll3.conn0->1".
// Building it formats nothing; Name does.
func NewEdgeConnector(tag, kind string, from, to, slots int) *Connector {
	c := NewConnector(tag, slots)
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

// CanWrite reports whether a slot is free for the producer.
func (c *Connector) CanWrite() bool { return c.tail-c.head < uint64(len(c.slots)) }

// CanRead reports whether a chunk is available for the consumer.
func (c *Connector) CanRead() bool { return c.tail > c.head }

// Write deposits a chunk into the next slot. The caller must have
// checked CanWrite; Write panics otherwise, because a real ring buffer
// overrun would corrupt data. The chunk is copied, matching the
// semantics of staging data into mapped transfer memory.
func (c *Connector) Write(e *sim.Engine, chunk []byte) {
	if !c.CanWrite() {
		panic(fmt.Sprintf("mem: connector %s overrun", c.Name()))
	}
	buf := c.spare
	c.spare = nil
	if cap(buf) < len(chunk) {
		buf = make([]byte, len(chunk))
	}
	buf = buf[:len(chunk)]
	copy(buf, chunk)
	c.slots[c.tail%uint64(len(c.slots))] = buf
	c.tail++
	c.written += uint64(len(chunk))
	c.readable.Broadcast(e)
}

// Read consumes the oldest chunk. The caller must have checked CanRead.
//
// The returned bytes are valid until the caller next yields to the
// engine (Sleep, a Cond wait, returning from the process body): the
// slot is free from this instant, and the next Write — which can only
// run once the caller has yielded — stages its chunk into the same
// memory. A caller that needs the data later copies it out first.
func (c *Connector) Read(e *sim.Engine) []byte {
	if !c.CanRead() {
		panic(fmt.Sprintf("mem: connector %s underrun", c.Name()))
	}
	chunk := c.slots[c.head%uint64(len(c.slots))]
	c.slots[c.head%uint64(len(c.slots))] = nil
	c.head++
	c.read += uint64(len(chunk))
	c.spare = chunk
	c.writable.Broadcast(e)
	return chunk
}

// Readable returns the condition signalled when a chunk arrives.
func (c *Connector) Readable() *sim.Cond { return &c.readable }

// Writable returns the condition signalled when a slot frees up.
func (c *Connector) Writable() *sim.Cond { return &c.writable }

// Drain discards all in-flight chunks and releases ownership, waking
// any writer blocked on a full ring. This is the abort path for
// elastic membership: when a rank is lost mid-collective, chunks it
// deposited (or never consumed) are garbage to the next owner, so the
// pool scrubs the connector before reuse instead of tripping the
// Reset in-flight panic.
func (c *Connector) Drain(e *sim.Engine) {
	for i, chunk := range c.slots {
		c.scrubbed += uint64(len(chunk))
		c.slots[i] = nil
	}
	c.head = c.tail
	c.Owner = -1
	c.checkBytes()
	c.writable.Broadcast(e)
}

// Reset clears the connector for reuse by a new collective. It panics
// if in-flight chunks remain, which would indicate the daemon kernel
// violated connector ownership of a preempted collective.
func (c *Connector) Reset() {
	if c.Pending() != 0 {
		panic(fmt.Sprintf("mem: resetting connector %s with %d in-flight chunks", c.Name(), c.Pending()))
	}
	c.checkBytes()
	c.Owner = -1
}

// checkBytes asserts the byte-conservation invariant of an empty ring:
// every byte written was either read or scrubbed.
func (c *Connector) checkBytes() {
	if c.written != c.read+c.scrubbed {
		panic(fmt.Sprintf("mem: connector %s lost bytes: written %d != read %d + scrubbed %d",
			c.Name(), c.written, c.read, c.scrubbed))
	}
}
