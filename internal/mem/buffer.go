// Package mem implements the simulated memory subsystem: device, host,
// and page-locked (pinned) buffers with real backing data, the typed
// element/reduction operations collectives apply to that data, and the
// connector ring buffers used for inter-GPU transfers (Fig. 5 of the
// paper: send/recv buffers are local I/O, send/recv connectors carry
// chunks between peers).
//
// The package moves and reduces real bytes, so it is written to do that
// at memory speed and to allocate nothing per chunk:
//
//   - ReduceInto (dst = a op b; Reduce is dst = dst op src) runs one
//     straight-line loop per (operation, element type), four elements at
//     a time, over the bytes viewed in place as []float32, []int64, …; a
//     slice the host cannot view that way takes the same loop through
//     decoded copies. Integers reduce natively and wrap around in two's
//     complement.
//   - Connectors lend chunks: Write keeps a view of the writer's memory,
//     and the one copy per hop is the reader's. A writer about to
//     overwrite memory it lent calls Settle, which stages the unread
//     chunks there into a Chunks pool — a free list of buffers per
//     power-of-two capacity class — that every connector of one
//     simulation shares: Read and Drain give a staged chunk's buffer
//     back, so a buffer any Read frees serves the next Settle anywhere.
//     The price is a lifetime on what Read returns — valid until the
//     caller next yields to the engine — because no other process, and
//     so no other writer, can run before the reader yields. Readers
//     therefore consume a chunk before they sleep.
//   - A pool makes a buffer only when its class's free list is empty,
//     so it holds at most the peak number of staged chunks of each class
//     that were in flight at once. One spare per connector allocated again
//     on every burst deeper than a slot; keeping every buffer per
//     connector pinned a backed-up ring's full depth on each one (peak
//     RSS on the benchmark's disorder_preempt workload: 24.2–24.7 MB
//     with one spare, 28.0 MB keeping everything per connector, 22.3 MB
//     with the shared pool, which also cuts its allocated bytes from
//     4.67 to 1.00 MB per unit).
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// DataType is the element type of a collective buffer.
type DataType int

const (
	// Float32 is the 4-byte IEEE 754 float.
	Float32 DataType = iota
	// Float64 is the 8-byte IEEE 754 float.
	Float64
	// Int32 is the 4-byte two's-complement integer.
	Int32
	// Int64 is the 8-byte two's-complement integer.
	Int64
)

// Size returns the element size in bytes.
func (t DataType) Size() int {
	switch t {
	case Float32, Int32:
		return 4
	case Float64, Int64:
		return 8
	default:
		panic(fmt.Sprintf("mem: unknown DataType(%d)", int(t)))
	}
}

// String returns the Go name of the element type ("float32", …).
func (t DataType) String() string {
	switch t {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	default:
		return fmt.Sprintf("DataType(%d)", int(t))
	}
}

// ReduceOp is the reduction applied by reducing collectives.
type ReduceOp int

const (
	// Sum adds the elements (integers wrap around).
	Sum ReduceOp = iota
	// Prod multiplies the elements (integers wrap around).
	Prod
	// Max keeps the larger element.
	Max
	// Min keeps the smaller element.
	Min
)

// String returns the lowercase name of the operation ("sum", …).
func (o ReduceOp) String() string {
	switch o {
	case Sum:
		return "sum"
	case Prod:
		return "prod"
	case Max:
		return "max"
	case Min:
		return "min"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(o))
	}
}

// Buffer is a contiguous region with real backing bytes. Collectives in
// this repository actually move and reduce these bytes, so functional
// correctness (not just timing) is testable.
type Buffer struct {
	Type DataType
	data []byte
}

// NewBuffer allocates a buffer of count elements of type t.
func NewBuffer(t DataType, count int) *Buffer {
	if count < 0 {
		panic("mem: negative element count")
	}
	return &Buffer{Type: t, data: make([]byte, count*t.Size())}
}

// Clone returns a new buffer holding a copy of b's bytes. Unlike
// NewBuffer followed by a copy, the new memory is written once: it is
// never zeroed first.
func (b *Buffer) Clone() *Buffer {
	return &Buffer{Type: b.Type, data: bytes.Clone(b.data)}
}

// Reshape makes b, in place, a buffer of count elements of type t when
// its memory holds them, and reports whether it did. The elements keep
// whatever bytes were there.
func (b *Buffer) Reshape(t DataType, count int) bool {
	n := count * t.Size()
	if count < 0 || n > cap(b.data) {
		return false
	}
	b.Type, b.data = t, b.data[:n]
	return true
}

// Len returns the number of elements.
func (b *Buffer) Len() int { return len(b.data) / b.Type.Size() }

// Overlaps reports whether b and o share a byte of memory; an empty
// buffer shares none.
func (b *Buffer) Overlaps(o *Buffer) bool {
	if len(b.data) == 0 || len(o.data) == 0 {
		return false
	}
	p, q := uintptr(unsafe.Pointer(&b.data[0])), uintptr(unsafe.Pointer(&o.data[0]))
	return p < q+uintptr(len(o.data)) && q < p+uintptr(len(b.data))
}

// Bytes returns the raw backing bytes (shared, not a copy).
func (b *Buffer) Bytes() []byte { return b.data }

// Slice returns the byte range covering elements [lo, hi).
func (b *Buffer) Slice(lo, hi int) []byte {
	sz := b.Type.Size()
	return b.data[lo*sz : hi*sz]
}

// Float64At decodes element i as a float64 regardless of the element type.
// One switch on the type both sizes and decodes the element.
func (b *Buffer) Float64At(i int) float64 {
	switch b.Type {
	case Float32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(b.data[4*i : 4*i+4])))
	case Float64:
		return math.Float64frombits(binary.LittleEndian.Uint64(b.data[8*i : 8*i+8]))
	case Int32:
		return float64(int32(binary.LittleEndian.Uint32(b.data[4*i : 4*i+4])))
	case Int64:
		return float64(int64(binary.LittleEndian.Uint64(b.data[8*i : 8*i+8])))
	default:
		panic("mem: unknown type")
	}
}

// SetFloat64 encodes v into element i, converting to the element type.
// One switch on the type both sizes and encodes the element.
func (b *Buffer) SetFloat64(i int, v float64) {
	switch b.Type {
	case Float32:
		binary.LittleEndian.PutUint32(b.data[4*i:4*i+4], math.Float32bits(float32(v)))
	case Float64:
		binary.LittleEndian.PutUint64(b.data[8*i:8*i+8], math.Float64bits(v))
	case Int32:
		binary.LittleEndian.PutUint32(b.data[4*i:4*i+4], uint32(int32(v)))
	case Int64:
		binary.LittleEndian.PutUint64(b.data[8*i:8*i+8], uint64(int64(v)))
	default:
		panic("mem: unknown type")
	}
}

// Fill sets every element to v.
func (b *Buffer) Fill(v float64) {
	for i := range b.Len() {
		b.SetFloat64(i, v)
	}
}

// number is the set of Go types a DataType can name.
type number interface {
	float32 | float64 | int32 | int64
}

// Reduce applies op element-wise over src into dst (dst = dst op src):
// ReduceInto(op, t, dst, dst, src).
func Reduce(op ReduceOp, t DataType, dst, src []byte) {
	ReduceInto(op, t, dst, dst, src)
}

// ReduceInto applies op element-wise over a and b into dst (dst = a op b),
// bit for bit what copying a into dst and then Reduce(op, t, dst, b)
// gives. All three slices must hold the same whole number of elements of
// type t in little-endian byte order, the format of Buffer; dst may be a
// itself, but must not otherwise overlap a or b.
//
// Every element type reduces in its own arithmetic:
//
//   - Float32 and Float64 give the IEEE result of the operation in that
//     type. For Float32 that is bit for bit what computing in float64
//     and rounding once gives: float64 carries more than twice float32's
//     precision, which makes the double rounding of + and × innocuous.
//   - Max and Min keep a only where a > b (a < b) holds, so a NaN on
//     either side selects b, and the selected operand's bits are stored
//     as they are.
//   - Int32 and Int64 are two's complement: Sum and Prod wrap around on
//     overflow and every result is exact — there is no detour through
//     float64, which cannot hold integers beyond 2^53.
func ReduceInto(op ReduceOp, t DataType, dst, a, b []byte) {
	sz := t.Size()
	if len(dst) != len(a) || len(dst) != len(b) || len(dst)%sz != 0 {
		panic(fmt.Sprintf("mem: Reduce size mismatch: dst=%d a=%d b=%d elem=%d", len(dst), len(a), len(b), sz))
	}
	switch t {
	case Float32:
		reduceBytes[float32](op, dst, a, b)
	case Float64:
		reduceBytes[float64](op, dst, a, b)
	case Int32:
		reduceBytes[int32](op, dst, a, b)
	case Int64:
		reduceBytes[int64](op, dst, a, b)
	}
}

// reduceBytes runs the typed kernel over dst, a and b in place where the
// host can address all three as []T, and otherwise — a big-endian machine
// or a slice that does not start on a T boundary — block by block through
// decoded copies, so both routes share the one kernel.
func reduceBytes[T number](op ReduceOp, dst, a, b []byte) {
	dv, dok := view[T](dst)
	av, aok := view[T](a)
	bv, bok := view[T](b)
	if dok && aok && bok {
		reduce(op, dv, av, bv)
		return
	}
	var x, y [256]T
	sz := int(unsafe.Sizeof(x[0]))
	for len(dst) > 0 {
		n := min(len(dst)/sz, len(x))
		for i := 0; i < n; i++ {
			x[i], y[i] = load[T](a[i*sz:]), load[T](b[i*sz:])
		}
		reduce(op, x[:n], x[:n], y[:n])
		for i := 0; i < n; i++ {
			store(dst[i*sz:], x[i])
		}
		dst, a, b = dst[n*sz:], a[n*sz:], b[n*sz:]
	}
}

// load decodes one little-endian element. A T and the unsigned word of
// its size share the host's byte order, so moving the word's bits into
// a T is the same on every machine.
func load[T number](b []byte) (v T) {
	if unsafe.Sizeof(v) == 4 {
		*(*uint32)(unsafe.Pointer(&v)) = binary.LittleEndian.Uint32(b)
	} else {
		*(*uint64)(unsafe.Pointer(&v)) = binary.LittleEndian.Uint64(b)
	}
	return v
}

// store is the inverse of load.
func store[T number](b []byte, v T) {
	if unsafe.Sizeof(v) == 4 {
		binary.LittleEndian.PutUint32(b, *(*uint32)(unsafe.Pointer(&v)))
	} else {
		binary.LittleEndian.PutUint64(b, *(*uint64)(unsafe.Pointer(&v)))
	}
}

// hostLittleEndian reports whether the machine's byte order is the
// buffers' byte order.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// view reinterprets b as a []T without copying; ok is false where that
// is not the same data (big-endian host) or not addressable as T
// (b does not start on a T boundary).
func view[T number](b []byte) (v []T, ok bool) {
	var z T
	p := unsafe.Pointer(unsafe.SliceData(b))
	if !hostLittleEndian || uintptr(p)%unsafe.Alignof(z) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), len(b)/int(unsafe.Sizeof(z))), true
}

// reduce is the kernel: one straight-line loop per (op, T), four
// elements at a time. One at a time, the Sum loop ran up to twice as slow
// in binaries that placed it across a 64-byte line.
func reduce[T number](op ReduceOp, dst, a, b []T) {
	a, b = a[:len(dst)], b[:len(dst)]
	n := len(dst) &^ 3
	switch op {
	case Sum:
		for i := 0; i < n; i += 4 {
			d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
			d[0], d[1], d[2], d[3] = x[0]+y[0], x[1]+y[1], x[2]+y[2], x[3]+y[3]
		}
		for i := n; i < len(dst); i++ {
			dst[i] = a[i] + b[i]
		}
	case Prod:
		for i := 0; i < n; i += 4 {
			d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
			d[0], d[1], d[2], d[3] = x[0]*y[0], x[1]*y[1], x[2]*y[2], x[3]*y[3]
		}
		for i := n; i < len(dst); i++ {
			dst[i] = a[i] * b[i]
		}
	case Max:
		for i := 0; i < n; i += 4 {
			d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
			d[0], d[1], d[2], d[3] = keep(x[0] > y[0], x[0], y[0]), keep(x[1] > y[1], x[1], y[1]), keep(x[2] > y[2], x[2], y[2]), keep(x[3] > y[3], x[3], y[3])
		}
		for i := n; i < len(dst); i++ {
			dst[i] = keep(a[i] > b[i], a[i], b[i])
		}
	case Min:
		for i := 0; i < n; i += 4 {
			d, x, y := dst[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
			d[0], d[1], d[2], d[3] = keep(x[0] < y[0], x[0], y[0]), keep(x[1] < y[1], x[1], y[1]), keep(x[2] < y[2], x[2], y[2]), keep(x[3] < y[3], x[3], y[3])
		}
		for i := n; i < len(dst); i++ {
			dst[i] = keep(a[i] < b[i], a[i], b[i])
		}
	default:
		panic("mem: unknown op")
	}
}

// keep is x where c holds, else y.
func keep[T number](c bool, x, y T) T {
	if c {
		return x
	}
	return y
}
