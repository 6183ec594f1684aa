package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dfccl/internal/sim"
)

func TestBufferRoundTrip(t *testing.T) {
	for _, dt := range []DataType{Float32, Float64, Int32, Int64} {
		b := NewBuffer(dt, 16)
		if b.Len() != 16 {
			t.Fatalf("%v: Len = %d, want 16", dt, b.Len())
		}
		for i := 0; i < 16; i++ {
			b.SetFloat64(i, float64(i*3))
		}
		for i := 0; i < 16; i++ {
			if got := b.Float64At(i); got != float64(i*3) {
				t.Fatalf("%v: elem %d = %v, want %v", dt, i, got, float64(i*3))
			}
		}
	}
}

func TestBufferFillAndSlice(t *testing.T) {
	b := NewBuffer(Float32, 8)
	b.Fill(2.5)
	raw := b.Slice(2, 4)
	if len(raw) != 2*4 {
		t.Fatalf("Slice len = %d, want 8", len(raw))
	}
	if b.Float64At(7) != 2.5 {
		t.Fatal("Fill did not cover last element")
	}
}

func TestReduceOps(t *testing.T) {
	cases := []struct {
		op   ReduceOp
		a, b float64
		want float64
	}{
		{Sum, 3, 4, 7},
		{Prod, 3, 4, 12},
		{Max, 3, 4, 4},
		{Min, 3, 4, 3},
	}
	for _, c := range cases {
		dst := NewBuffer(Float64, 1)
		src := NewBuffer(Float64, 1)
		dst.SetFloat64(0, c.a)
		src.SetFloat64(0, c.b)
		Reduce(c.op, Float64, dst.Bytes(), src.Bytes())
		if got := dst.Float64At(0); got != c.want {
			t.Errorf("%v(%v,%v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestReduceSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Reduce(Sum, Float32, make([]byte, 8), make([]byte, 4))
}

// Property: float64 sum-reduce over byte buffers matches plain float math.
func TestReduceSumProperty(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n > 128 {
			n = 128
		}
		dst := NewBuffer(Float64, n)
		src := NewBuffer(Float64, n)
		for i := 0; i < n; i++ {
			dst.SetFloat64(i, xs[i])
			src.SetFloat64(i, ys[i])
		}
		Reduce(Sum, Float64, dst.Bytes(), src.Bytes())
		for i := 0; i < n; i++ {
			want := xs[i] + ys[i]
			got := dst.Float64At(i)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refReduce is Reduce as it was before the typed kernels: every element
// decoded to float64, combined there, and encoded back. It is the
// oracle the kernels are checked against — exact for every float input,
// and for integers wherever float64 can hold the operands and result.
func refReduce(op ReduceOp, t DataType, dst, src []byte) {
	sz := t.Size()
	for i := 0; i < len(dst)/sz; i++ {
		d := refDecode(t, dst[i*sz:])
		s := refDecode(t, src[i*sz:])
		refEncode(t, dst[i*sz:], refApply(op, d, s))
	}
}

func refDecode(t DataType, raw []byte) float64 {
	switch t {
	case Float32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(raw)))
	case Float64:
		return math.Float64frombits(binary.LittleEndian.Uint64(raw))
	case Int32:
		return float64(int32(binary.LittleEndian.Uint32(raw)))
	case Int64:
		return float64(int64(binary.LittleEndian.Uint64(raw)))
	default:
		panic("mem: unknown type")
	}
}

func refEncode(t DataType, raw []byte, v float64) {
	switch t {
	case Float32:
		binary.LittleEndian.PutUint32(raw, math.Float32bits(float32(v)))
	case Float64:
		binary.LittleEndian.PutUint64(raw, math.Float64bits(v))
	case Int32:
		binary.LittleEndian.PutUint32(raw, uint32(int32(v)))
	case Int64:
		binary.LittleEndian.PutUint64(raw, uint64(int64(v)))
	default:
		panic("mem: unknown type")
	}
}

func refApply(op ReduceOp, a, b float64) float64 {
	switch op {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Max:
		if a > b {
			return a
		}
		return b
	case Min:
		if a < b {
			return a
		}
		return b
	default:
		panic("mem: unknown op")
	}
}

// word returns the element at raw as an unsigned word.
func word(t DataType, raw []byte) uint64 {
	if t.Size() == 4 {
		return uint64(binary.LittleEndian.Uint32(raw))
	}
	return binary.LittleEndian.Uint64(raw)
}

// quietNaN returns float element x with its quiet bit set, and whether
// x is a NaN at all.
func quietNaN(t DataType, x uint64) (uint64, bool) {
	if t == Float32 {
		return x | 1<<22, x&0x7f800000 == 0x7f800000 && x&0x007fffff != 0
	}
	return x | 1<<51, x>>52&0x7ff == 0x7ff && x&(1<<52-1) != 0
}

// sameResult reports whether got is what Reduce(op, t, dst, src) must
// leave in one element, given refReduce's result ref. It must be ref,
// with two exceptions, both for floats:
//
//   - Sum or Prod of two NaNs propagates one of them, quieted. Which one
//     is the CPU's rule applied to the operand order the compiler chose
//     for a commutative instruction, so it can differ between two
//     compilations of the same source (it does under -cover) — in
//     refReduce as much as in the kernels. Either operand is accepted.
//   - Max and Min store the selected operand's bits. refReduce's float32
//     → float64 → float32 round trip also quieted a signalling NaN it
//     selected (always src: a NaN on either side selects src); its
//     Float64 path never did, and the kernels do not for either type.
func sameResult(op ReduceOp, t DataType, dst, src, ref, got uint64) bool {
	if got == ref {
		return true
	}
	if t != Float32 && t != Float64 {
		return false
	}
	dQuiet, dNaN := quietNaN(t, dst)
	sQuiet, sNaN := quietNaN(t, src)
	if op == Sum || op == Prod {
		return dNaN && sNaN && (got == dQuiet || got == sQuiet)
	}
	return t == Float32 && sNaN && got == src
}

// oracleData returns two equal-length element arrays for (op, t): every
// ordered pair of the type's special values first, then seeded random
// ones. Floats are random bit patterns (so NaN payloads, denormals and
// infinities keep turning up); integers are drawn from the range in
// which refReduce is exact for op.
func oracleData(rng *rand.Rand, op ReduceOp, t DataType, random int) (a, b []byte) {
	put := func(dst *[]byte, bits uint64) {
		if t.Size() == 4 {
			*dst = binary.LittleEndian.AppendUint32(*dst, uint32(bits))
		} else {
			*dst = binary.LittleEndian.AppendUint64(*dst, bits)
		}
	}
	var special []uint64
	intBits := 0 // integers are drawn from [-2^intBits, 2^intBits)
	switch t {
	case Float32:
		for _, v := range []float32{
			float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
			float32(math.Inf(1)), float32(math.Inf(-1)),
			math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
			math.Float32frombits(0x007fffff), // largest denormal
			math.Float32frombits(0x00800000), // smallest normal
			math.MaxFloat32, -math.MaxFloat32,
			math.Nextafter32(math.MaxFloat32, 0), math.MaxFloat32 / 2,
			math.Nextafter32(math.MaxFloat32/2, math.MaxFloat32),
			1, -1, 1 + 1.0/(1<<23), 1.5, 3,
		} {
			special = append(special, uint64(math.Float32bits(v)))
		}
		special = append(special, 0x7fa00001, 0xffc12345) // signalling, and quiet with a payload
	case Float64:
		for _, v := range []float64{
			math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
			math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x0010000000000000),
			math.MaxFloat64, -math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0), math.MaxFloat64 / 2,
			math.MaxFloat32, math.Nextafter(math.MaxFloat32, 0), math.Nextafter(math.MaxFloat32, math.Inf(1)),
			1, -1, 1 + 1.0/(1<<52), 1.5, 3,
		} {
			special = append(special, math.Float64bits(v))
		}
		special = append(special, 0x7ff4000000000001, 0xfff8000000012345)
	case Int32:
		intBits = map[ReduceOp]int{Sum: 30, Prod: 15, Max: 31, Min: 31}[op]
	case Int64:
		intBits = map[ReduceOp]int{Sum: 52, Prod: 26, Max: 53, Min: 53}[op]
	}
	if intBits > 0 {
		lim := int64(1) << intBits
		for _, v := range []int64{0, 1, -1, 2, -2, lim - 1, -lim, lim / 2} {
			special = append(special, uint64(v))
		}
	}
	for _, x := range special {
		for _, y := range special {
			put(&a, x)
			put(&b, y)
		}
	}
	for i := 0; i < 2*random; i++ {
		bits := rng.Uint64()
		if intBits > 0 {
			bits = uint64(rng.Int63n(2<<intBits) - 1<<intBits)
		}
		if i%2 == 0 {
			put(&a, bits)
		} else {
			put(&b, bits)
		}
	}
	return a, b
}

// TestReduceMatchesReference checks all 16 (op, type) kernels byte for
// byte against refReduce: at lengths 0, 1, odd and 32 Ki elements, on
// sub-slices starting at every element offset 0–7 of their allocation
// (every word alignment the typed view can meet), and on slices shifted
// by one byte, which take the decoded-block route.
func TestReduceMatchesReference(t *testing.T) {
	const big = 32 << 10
	rng := rand.New(rand.NewSource(1))
	for _, dt := range []DataType{Float32, Float64, Int32, Int64} {
		for _, op := range []ReduceOp{Sum, Prod, Max, Min} {
			sz := dt.Size()
			a, b := oracleData(rng, op, dt, big+8)
			// check reduces src into a[lo:hi] and compares all of a, so
			// a write outside the range shows too.
			check := func(what string, a []byte, lo, hi int, src []byte) {
				ref, got := bytes.Clone(a), bytes.Clone(a)
				refReduce(op, dt, ref[lo:hi], src)
				Reduce(op, dt, got[lo:hi], src)
				if !bytes.Equal(got[:lo], a[:lo]) || !bytes.Equal(got[hi:], a[hi:]) {
					t.Fatalf("%v/%v %s: wrote outside dst", dt, op, what)
				}
				for i := 0; i < hi-lo; i += sz {
					d, s := word(dt, a[lo+i:]), word(dt, src[i:])
					r, g := word(dt, ref[lo+i:]), word(dt, got[lo+i:])
					if !sameResult(op, dt, d, s, r, g) {
						t.Fatalf("%v/%v %s: element %d: %#x op %#x = %#x, reference %#x", dt, op, what, i/sz, d, s, g, r)
					}
				}
			}
			for _, n := range []int{0, 1, 1001, big} {
				for off := 0; off < 8; off++ {
					lo, hi := off*sz, (off+n)*sz
					check(fmt.Sprintf("len %d at element %d", n, off), a, lo, hi, b[lo:hi])
				}
			}
			// The whole array, specials included; then the same bytes one
			// byte off their allocation's alignment on either or both sides.
			check("whole", a, 0, len(a), b)
			a1, b1 := append([]byte{0}, a...), append([]byte{0}, b...)
			check("both misaligned", a1, 1, len(a1), b1[1:])
			check("dst misaligned", a1, 1, len(a1), b)
			check("src misaligned", a, 0, len(a), b1[1:])
		}
	}
}

// TestReduceIntegersAreNative pins what the float64 detour got wrong:
// integer reductions are exact and wrap around in two's complement.
func TestReduceIntegersAreNative(t *testing.T) {
	cases := []struct {
		op         ReduceOp
		t          DataType
		a, b, want int64
	}{
		{Sum, Int64, 1<<53 + 1, 0, 1<<53 + 1},                      // was 2^53: adding zero changed the value
		{Prod, Int64, 3037000500, 3037000499, 9223372033963249500}, // was off by 164
		{Sum, Int32, math.MaxInt32, 1, math.MinInt32},              // wraps; was an implementation-defined float→int conversion
		{Prod, Int32, 1 << 16, 1 << 16, 0},                         // wraps
		{Sum, Int64, math.MaxInt64, 1, math.MinInt64},              // wraps
		{Max, Int64, 1<<53 + 1, 1 << 53, 1<<53 + 1},                // was a tie in float64, resolved to src
		{Min, Int64, -(1<<53 + 1), -(1 << 53), -(1<<53 + 1)},       // likewise
		{Prod, Int64, math.MinInt64, -1, math.MinInt64},            // wraps
		{Min, Int32, math.MinInt32, math.MaxInt32, math.MinInt32},  // full range
		{Max, Int32, math.MinInt32, math.MaxInt32, math.MaxInt32},  // full range
		{Prod, Int32, 46341, 46341, -2147479015},                   // 2147488281 - 2^32
	}
	for _, c := range cases {
		dst, src := make([]byte, c.t.Size()), make([]byte, c.t.Size())
		var got int64
		if c.t == Int32 {
			binary.LittleEndian.PutUint32(dst, uint32(c.a))
			binary.LittleEndian.PutUint32(src, uint32(c.b))
			Reduce(c.op, c.t, dst, src)
			got = int64(int32(binary.LittleEndian.Uint32(dst)))
		} else {
			binary.LittleEndian.PutUint64(dst, uint64(c.a))
			binary.LittleEndian.PutUint64(src, uint64(c.b))
			Reduce(c.op, c.t, dst, src)
			got = int64(binary.LittleEndian.Uint64(dst))
		}
		if got != c.want {
			t.Errorf("%v %v of %d and %d = %d, want %d", c.op, c.t, c.a, c.b, got, c.want)
		}
	}
}

func BenchmarkReduce(b *testing.B) {
	for _, dt := range []DataType{Float32, Float64, Int32, Int64} {
		for _, op := range []ReduceOp{Sum, Max} {
			b.Run(dt.String()+"/"+op.String(), func(b *testing.B) {
				dst, src := make([]byte, 128<<10), make([]byte, 128<<10)
				b.SetBytes(int64(len(dst)))
				for i := 0; i < b.N; i++ {
					Reduce(op, dt, dst, src)
				}
			})
		}
	}
	b.Run("float32/sum/misaligned", func(b *testing.B) {
		dst, src := make([]byte, 128<<10+1)[1:], make([]byte, 128<<10+1)[1:]
		b.SetBytes(int64(len(dst)))
		for i := 0; i < b.N; i++ {
			Reduce(Sum, Float32, dst, src)
		}
	})
}

func TestConnectorFIFO(t *testing.T) {
	e := sim.NewEngine()
	c := NewConnector("c", 4)
	var got []byte
	e.Spawn("producer", func(p *sim.Process) {
		for i := byte(0); i < 8; i++ {
			for !c.CanWrite() {
				c.Writable().Wait(p)
			}
			c.Write(p.Engine(), []byte{i})
			p.Sleep(1)
		}
	})
	e.Spawn("consumer", func(p *sim.Process) {
		for len(got) < 8 {
			for !c.CanRead() {
				c.Readable().Wait(p)
			}
			got = append(got, c.Read(p.Engine())[0])
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := byte(0); i < 8; i++ {
		if got[i] != i {
			t.Fatalf("got = %v, want FIFO order", got)
		}
	}
}

// TestEdgeConnectorName: a wiring's connector formats its name only when
// asked, to the text the wirings always gave it.
func TestEdgeConnectorName(t *testing.T) {
	if got := NewEdgeConnector("coll3.hier", "mesh", 4, 12, 2).Name(); got != "coll3.hier.mesh4->12" {
		t.Errorf("Name = %q, want coll3.hier.mesh4->12", got)
	}
	if got := NewConnector("probe", 2).Name(); got != "probe" {
		t.Errorf("Name = %q, want probe", got)
	}
}

func TestConnectorBackpressure(t *testing.T) {
	e := sim.NewEngine()
	c := NewConnector("c", 2)
	var maxPending int
	e.Spawn("producer", func(p *sim.Process) {
		for i := 0; i < 10; i++ {
			for !c.CanWrite() {
				c.Writable().Wait(p)
			}
			c.Write(p.Engine(), []byte{byte(i)})
			if c.Pending() > maxPending {
				maxPending = c.Pending()
			}
		}
	})
	e.Spawn("consumer", func(p *sim.Process) {
		for i := 0; i < 10; i++ {
			p.Sleep(5)
			for !c.CanRead() {
				c.Readable().Wait(p)
			}
			c.Read(p.Engine())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if maxPending > 2 {
		t.Fatalf("ring exceeded capacity: pending=%d", maxPending)
	}
}

func TestConnectorPersistentVisibility(t *testing.T) {
	// Data written before the "writer is preempted" must remain
	// readable by the peer: the core property of Sec. 4.1.
	e := sim.NewEngine()
	c := NewConnector("c", 4)
	var read []byte
	e.Spawn("writer-then-preempted", func(p *sim.Process) {
		c.Write(p.Engine(), []byte{42})
		// Writer "preempted": it simply stops touching the connector.
	})
	e.Spawn("late-reader", func(p *sim.Process) {
		p.Sleep(100)
		if !c.CanRead() {
			t.Error("chunk lost after writer preemption")
			return
		}
		read = c.Read(p.Engine())
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(read) != 1 || read[0] != 42 {
		t.Fatalf("read = %v, want [42]", read)
	}
}

func TestConnectorWriteCopies(t *testing.T) {
	e := sim.NewEngine()
	c := NewConnector("c", 1)
	src := []byte{1}
	e.Spawn("p", func(p *sim.Process) {
		c.Write(p.Engine(), src)
		src[0] = 99 // mutate after write; the chunk must be unaffected
		if got := c.Read(p.Engine()); got[0] != 1 {
			t.Errorf("chunk aliased caller memory: %v", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestConnectorOverrunPanics(t *testing.T) {
	e := sim.NewEngine()
	c := NewConnector("c", 1)
	err := func() (err interface{}) {
		defer func() { err = recover() }()
		e.Spawn("p", func(p *sim.Process) {
			c.Write(p.Engine(), []byte{1})
			c.Write(p.Engine(), []byte{2})
		})
		e.Run()
		return nil
	}()
	_ = err // Run reports the panic as an error; either path is fine
	if c.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", c.Pending())
	}
}

func TestConnectorResetGuard(t *testing.T) {
	e := sim.NewEngine()
	c := NewConnector("c", 2)
	e.Spawn("p", func(p *sim.Process) { c.Write(p.Engine(), []byte{1}) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with in-flight chunks should panic")
		}
	}()
	c.Reset()
}

// inProcess runs body as the only process of a fresh engine.
func inProcess(t *testing.T, body func(p *sim.Process)) {
	t.Helper()
	e := sim.NewEngine()
	e.Spawn("p", body)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// retained is the chunk memory a connector holds on to, in bytes.
func retained(c *Connector) int {
	n := cap(c.spare)
	for _, s := range c.slots {
		n += cap(s)
	}
	return n
}

// TestConnectorRecyclesChunks: a steady stream of equal-sized chunks
// allocates nothing, at ring depth one and with a standing backlog. One
// allocation per Write (the make coming back) reads as 1 here.
func TestConnectorRecyclesChunks(t *testing.T) {
	for _, backlog := range []int{0, 3} {
		c := NewConnector("c", 8)
		chunk := bytes.Repeat([]byte{7}, 4096)
		inProcess(t, func(p *sim.Process) {
			e := p.Engine()
			for i := 0; i <= backlog; i++ { // the stream's working set
				c.Write(e, chunk)
			}
			c.Read(e)
			allocs := testing.AllocsPerRun(100, func() {
				c.Write(e, chunk)
				if got := c.Read(e); !bytes.Equal(got, chunk) {
					t.Errorf("backlog %d: chunk corrupted", backlog)
				}
			})
			if allocs != 0 {
				t.Errorf("backlog %d: %v allocations per Write/Read, want 0", backlog, allocs)
			}
		})
	}
}

// TestConnectorRetentionIsBounded: however deep the ring backed up, an
// empty connector keeps at most the one buffer freed last — after the
// backlog is read out and after Drain discards it.
func TestConnectorRetentionIsBounded(t *testing.T) {
	const size = 1000
	chunk := make([]byte, size)
	inProcess(t, func(p *sim.Process) {
		e := p.Engine()
		c := NewConnector("c", 8)
		fill := func() {
			for c.CanWrite() {
				c.Write(e, chunk)
			}
			if got := retained(c); got < 8*size {
				t.Fatalf("full ring retains %d bytes, want >= %d", got, 8*size)
			}
		}
		fill()
		for c.CanRead() {
			c.Read(e)
		}
		if got := retained(c); got != size {
			t.Errorf("after the backlog drained: %d bytes retained, want one chunk (%d)", got, size)
		}
		fill()
		c.Drain(e)
		if got := retained(c); got > size {
			t.Errorf("after Drain: %d bytes retained, want at most one chunk (%d)", got, size)
		}
		if c.Pending() != 0 || !c.CanWrite() {
			t.Errorf("Drain left pending=%d", c.Pending())
		}
	})
}

// TestConnectorChunkSizesVary: a recycled buffer serves a smaller chunk
// and is replaced for a larger one; lengths and bytes are exact.
func TestConnectorChunkSizesVary(t *testing.T) {
	inProcess(t, func(p *sim.Process) {
		e := p.Engine()
		c := NewConnector("c", 2)
		for i, n := range []int{64, 8, 0, 4096, 64, 1} {
			chunk := bytes.Repeat([]byte{byte(i + 1)}, n)
			c.Write(e, chunk)
			if got := c.Read(e); !bytes.Equal(got, chunk) {
				t.Fatalf("chunk %d (%d bytes): got %d bytes %v...", i, n, len(got), got[:min(len(got), 4)])
			}
		}
		c.Write(e, nil) // timing-only collectives carry no data
		if got := c.Read(e); len(got) != 0 {
			t.Fatalf("nil chunk read back as %d bytes", len(got))
		}
	})
}

// TestConnectorByteConservation: written == read + scrubbed whenever the
// ring is empty, asserted by Drain and Reset themselves.
func TestConnectorByteConservation(t *testing.T) {
	inProcess(t, func(p *sim.Process) {
		e := p.Engine()
		c := NewConnector("c", 4)
		for n := 1; n <= 3; n++ {
			c.Write(e, make([]byte, n))
		}
		c.Read(e)
		c.Drain(e)
		if c.written != 6 || c.read != 1 || c.scrubbed != 5 {
			t.Errorf("written/read/scrubbed = %d/%d/%d, want 6/1/5", c.written, c.read, c.scrubbed)
		}
		c.Write(e, make([]byte, 10))
		c.Read(e)
		c.Reset()

		c.read-- // a lost byte must not get past either check
		for name, f := range map[string]func(){"Reset": c.Reset, "Drain": func() { c.Drain(e) }} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "lost bytes") {
						t.Errorf("%s with a byte unaccounted for: recovered %v, want a lost-bytes panic", name, r)
					}
				}()
				f()
			}()
		}
	})
}
