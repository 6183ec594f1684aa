package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

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

// TestReduceIntoMatchesReduce holds the three-operand form to the
// two-operand one, bit for bit — NaN payloads and −0 included — for all
// 16 (op, type) kernels: dst = a op b must be what copying a into dst and
// reducing b in leaves, with dst, a and b each at every element offset
// 0–7 of their allocation (every word alignment), each one byte off its
// alignment in turn (the decoded-block route), and with dst being a
// itself. Nothing outside dst is written.
func TestReduceIntoMatchesReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dt := range []DataType{Float32, Float64, Int32, Int64} {
		for _, op := range []ReduceOp{Sum, Prod, Max, Min} {
			sz := dt.Size()
			a, b := oracleData(rng, op, dt, 1001)
			want := bytes.Clone(a)
			Reduce(op, dt, want, b)
			// at returns a copy of src placed off bytes into a fresh
			// allocation of 0xa5 bytes, with room on either side.
			at := func(src []byte, off int) (whole, part []byte) {
				whole = bytes.Repeat([]byte{0xa5}, len(src)+8*sz+1)
				return whole, append(whole[:off], src...)[off:]
			}
			check := func(what string, offD, offA, offB int, alias bool) {
				wholeA, pa := at(a, offA)
				_, pb := at(b, offB)
				wholeD, pd := wholeA, pa
				if alias {
					offD = offA
				} else {
					wholeD, pd = at(make([]byte, len(a)), offD)
				}
				ReduceInto(op, dt, pd, pa, pb)
				if !bytes.Equal(pd, want) {
					for i := 0; i < len(want); i += sz {
						if g, w := word(dt, pd[i:]), word(dt, want[i:]); g != w {
							t.Fatalf("%v/%v %s: element %d: %#x op %#x = %#x, Reduce gives %#x",
								dt, op, what, i/sz, word(dt, a[i:]), word(dt, b[i:]), g, w)
						}
					}
				}
				if !alias && (!bytes.Equal(pa, a) || !bytes.Equal(pb, b)) {
					t.Fatalf("%v/%v %s: an operand was written", dt, op, what)
				}
				for i, c := range wholeD {
					if (i < offD || i >= offD+len(pd)) && c != 0xa5 {
						t.Fatalf("%v/%v %s: wrote byte %d outside dst", dt, op, what, i)
					}
				}
			}
			for off := 0; off < 8; off++ {
				offD, offA, offB := off*sz, (3*off)%8*sz, (5*off)%8*sz
				name := fmt.Sprintf("elements %d/%d/%d", offD/sz, offA/sz, offB/sz)
				check(name, offD, offA, offB, false)
				check(name+" dst misaligned", offD+1, offA, offB, false)
				check(name+" a misaligned", offD, offA+1, offB, false)
				check(name+" b misaligned", offD, offA, offB+1, false)
				check(name+" dst is a", 0, offA, offB, true)
				check(name+" dst is a, misaligned", 0, offA+1, offB, true)
			}
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
	if got := NewEdgeConnector(new(Chunks), "coll3.hier", "mesh", 4, 12, 2).Name(); got != "coll3.hier.mesh4->12" {
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

// TestConnectorWriteLends: a written chunk is a view of the writer's
// memory until it is read or settled. Settle stages exactly the unread
// lent chunks that overlap the range it is given, after which the writer
// may overwrite that range; Settle(nil) stages the rest.
func TestConnectorWriteLends(t *testing.T) {
	inProcess(t, func(p *sim.Process) {
		e := p.Engine()
		c := NewConnector("c", 4)
		src := []byte{1, 2, 3, 4}
		c.Write(e, src[:1])
		if got := c.Read(e); &got[0] != &src[0] || len(pooled(c.pool)) != 0 {
			t.Errorf("read a copy of a lent chunk, or the writer's memory went to the pool")
		}
		src[0] = 99
		c.Write(e, src[0:2])
		c.Write(e, src[2:4])
		c.Settle(src[1:2]) // overlaps the first chunk only
		if c.lent != 1<<2 {
			t.Errorf("lent slots %b after settling the first chunk, want 100", c.lent)
		}
		clear(src[0:2])
		c.Settle(nil)
		clear(src)
		for i, want := range [][]byte{{99, 2}, {3, 4}} {
			if got := c.Read(e); !bytes.Equal(got, want) {
				t.Errorf("chunk %d read %v after Settle, want %v", i, got, want)
			}
		}
		if c.lent != 0 || len(pooled(c.pool)) != 2 {
			t.Errorf("lent %b, pooled %d after reading both staged chunks, want 0 and 2", c.lent, len(pooled(c.pool)))
		}
	})
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
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "invariant reset-connector-empty") {
			t.Fatalf("Reset with in-flight chunks: recovered %v, want the reset-connector-empty panic", r)
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

// pooled returns the buffers on p's free lists.
func pooled(p *Chunks) [][]byte {
	var all [][]byte
	for _, free := range p.free {
		all = append(all, free...)
	}
	return all
}

// stage writes chunk to c and stages it at once, as a writer that
// overwrites its memory right after each write does.
func stage(e *sim.Engine, c *Connector, chunk []byte) {
	c.Write(e, chunk)
	c.Settle(nil)
}

// TestConnectorRecyclesChunks: a steady stream of equal-sized staged
// chunks allocates nothing, at ring depth one and with a standing
// backlog, and across two connectors on one pool, where the chunk A's
// Read frees is the very buffer B's Settle stages into. One allocation
// per chunk (the make coming back) reads as 1 here. Lent chunks never
// reach the pool.
func TestConnectorRecyclesChunks(t *testing.T) {
	chunk := bytes.Repeat([]byte{7}, 4096)
	for _, backlog := range []int{0, 3} {
		c := NewConnector("c", 8)
		inProcess(t, func(p *sim.Process) {
			e := p.Engine()
			for i := 0; i <= backlog; i++ { // the stream's working set
				stage(e, c, chunk)
			}
			c.Read(e)
			allocs := testing.AllocsPerRun(100, func() {
				stage(e, c, chunk)
				if got := c.Read(e); !bytes.Equal(got, chunk) {
					t.Errorf("backlog %d: chunk corrupted", backlog)
				}
			})
			if allocs != 0 {
				t.Errorf("backlog %d: %v allocations per Write/Read, want 0", backlog, allocs)
			}
		})
	}
	pool := new(Chunks)
	a := NewEdgeConnector(pool, "t", "conn", 0, 1, 8)
	b := NewEdgeConnector(pool, "t", "conn", 1, 2, 8)
	inProcess(t, func(p *sim.Process) {
		e := p.Engine()
		stage(e, a, chunk)
		freed := a.Read(e)
		stage(e, b, chunk)
		if unsafe.SliceData(b.slots[0]) != unsafe.SliceData(freed) {
			t.Error("B's Settle did not stage into the buffer A's Read freed")
		}
		b.Read(e)
		allocs := testing.AllocsPerRun(100, func() {
			stage(e, a, chunk)
			a.Read(e)
			stage(e, b, chunk)
			if got := b.Read(e); !bytes.Equal(got, chunk) {
				t.Error("two connectors: chunk corrupted")
			}
		})
		if allocs != 0 {
			t.Errorf("two connectors: %v allocations per round, want 0", allocs)
		}
		for range 3 {
			a.Write(e, chunk)
		}
		a.Drain(e)
		b.Write(e, chunk)
		if got := b.Read(e); unsafe.SliceData(got) != unsafe.SliceData(chunk) || len(pooled(pool)) != 1 || pool.Made() != 1 {
			t.Errorf("lent chunks: read a copy, or the pool holds %d buffers and made %d, want the one staged buffer", len(pooled(pool)), pool.Made())
		}
	})
}

// TestConnectorRetentionIsBounded: however deep rings back up, a shared
// pool keeps at most the peak number of chunks held at once — whether
// they come back by Read or by Drain, which returns the very buffers it
// scrubs.
func TestConnectorRetentionIsBounded(t *testing.T) {
	const size, class = 1000, 1024
	chunk := make([]byte, size)
	inProcess(t, func(p *sim.Process) {
		e := p.Engine()
		pool := new(Chunks)
		a := NewEdgeConnector(pool, "t", "conn", 0, 1, 8)
		b := NewEdgeConnector(pool, "t", "conn", 1, 0, 8)
		fill := func(c *Connector, n int) {
			for i := 0; i < n; i++ {
				stage(e, c, chunk)
			}
		}
		check := func(when string, want int) {
			t.Helper()
			bufs := pooled(pool)
			if len(bufs) != want {
				t.Errorf("%s: pool holds %d chunks, want the peak held at once, %d", when, len(bufs), want)
			}
			for _, buf := range bufs {
				if cap(buf) != class {
					t.Errorf("%s: pooled buffer of capacity %d, want %d", when, cap(buf), class)
				}
			}
		}
		fill(a, 8)
		for a.CanRead() {
			a.Read(e)
		}
		check("after A's backlog drained", 8)
		fill(b, 8) // served by A's chunks
		check("with B full", 0)
		fill(a, 4) // 12 held at once: four more are made
		scrubbed := [][]byte{b.slots[0], b.slots[7]}
		b.Drain(e)
		a.Drain(e)
		check("after Drain", 12)
		for _, buf := range scrubbed {
			if !slices.ContainsFunc(pooled(pool), func(p []byte) bool { return unsafe.SliceData(p) == unsafe.SliceData(buf) }) {
				t.Error("Drain did not return a scrubbed chunk to the pool")
			}
		}
		fill(a, 8)
		fill(b, 4)
		check("refilled to the peak", 0)
		if a.Pending() != 8 || b.Pending() != 4 {
			t.Errorf("pending %d/%d, want 8/4", a.Pending(), b.Pending())
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
