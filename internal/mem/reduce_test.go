package mem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// generic reduces dst = a op b with the generic loop alone.
func generic(op ReduceOp, t DataType, dst, a, b []byte) {
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

// TestVectorKernelsMatchGeneric holds ReduceInto — the vector kernel of
// its (op, type) pair, where there is one, then the generic loop on the
// tail — to the generic loop alone, bit for bit, for all 16 pairs. The
// only latitude is the one two NaNs leave Sum (eitherNaN). It
// runs every length 0–67 elements with dst, a and b each at every element
// offset 0–7 of their allocation, dst being a itself at every offset of
// a and b, and 32 Ki elements with the offsets moved together and with
// each slice one byte off its alignment. Nothing outside dst is written.
func TestVectorKernelsMatchGeneric(t *testing.T) {
	const big = 32 << 10
	rng := rand.New(rand.NewSource(3))
	for _, dt := range []DataType{Float32, Float64, Int32, Int64} {
		for _, op := range []ReduceOp{Sum, Prod, Max, Min} {
			sz := dt.Size()
			a0, b0 := oracleData(rng, op, dt, big+16)
			// Scratch allocations, each with room for the largest slice at
			// the largest offset.
			wa, wb, wd, want := make([]byte, len(a0)), make([]byte, len(a0)), make([]byte, len(a0)), make([]byte, len(a0))
			sentinel := bytes.Repeat([]byte{0xa5}, len(a0))
			// check reduces the n elements of a0 and b0 starting at
			// element start, placed offA and offB bytes into their
			// allocations, into a dst offD bytes into its own, or into a.
			check := func(n, start, offD, offA, offB int, alias bool) {
				x, y := a0[start*sz:(start+n)*sz], b0[start*sz:(start+n)*sz]
				pa, pb := wa[offA:offA+len(x)], wb[offB:offB+len(y)]
				copy(pa, x)
				copy(pb, y)
				whole := wd[:(n+8)*sz+1]
				copy(whole, sentinel)
				pd := whole[offD : offD+len(x)]
				if alias {
					whole, pd, offD = nil, pa, offA
				}
				generic(op, dt, want[:len(x)], x, y)
				ReduceInto(op, dt, pd, pa, pb)
				if !bytes.Equal(pd, want[:len(x)]) {
					for i := 0; i < len(x); i += sz {
						u, v := word(dt, x[i:]), word(dt, y[i:])
						g, w := word(dt, pd[i:]), word(dt, want[i:])
						if g != w && !(op == Sum && (dt == Float32 || dt == Float64) && eitherNaN(dt, u, v, g)) {
							t.Fatalf("%v/%v len %d, byte offsets dst %d a %d b %d, dst is a %v: element %d: %#x op %#x = %#x, generic loop %#x",
								dt, op, n, offD, offA, offB, alias, i/sz, u, v, g, w)
						}
					}
				}
				if whole != nil && (!bytes.Equal(whole[:offD], sentinel[:offD]) || !bytes.Equal(whole[offD+len(x):], sentinel[offD+len(x):len(whole)])) {
					t.Fatalf("%v/%v len %d, byte offsets dst %d a %d b %d: wrote outside dst", dt, op, n, offD, offA, offB)
				}
			}
			start := 0
			for n := 0; n < 68; n++ {
				for offD := range 8 {
					for offA := range 8 {
						for offB := range 8 {
							start = (start + 7) % (len(a0)/sz - n)
							check(n, start, offD*sz, offA*sz, offB*sz, false)
						}
						start = (start + 7) % (len(a0)/sz - n)
						check(n, start, 0, offD*sz, offA*sz, true)
					}
				}
			}
			for off := range 8 {
				offD, offA, offB := off*sz, (3*off)%8*sz, (5*off)%8*sz
				check(big, off, offD, offA, offB, false)
				check(big, off, 0, offA, offB, true)
				check(big, off, offD+1, offA, offB, false)
				check(big, off, offD, offA+1, offB, false)
				check(big, off, offD, offA, offB+1, false)
			}
		}
	}
}

// TestVectorCoverage pins which (op, type) pairs reduce through a vector
// kernel (vectorized, one list per build) and how much of the slice it
// takes: every byte but a tail shorter than 16, at any alignment. Every
// other pair takes none, so no pair falls back to the generic loop
// unnoticed.
func TestVectorCoverage(t *testing.T) {
	for _, dt := range []DataType{Float32, Float64, Int32, Int64} {
		for _, op := range []ReduceOp{Sum, Prod, Max, Min} {
			for _, n := range []int{0, 1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 100, 1001} {
				for _, off := range []int{0, 1, 4} {
					size := n * dt.Size()
					dst, a, b := make([]byte, size+off)[off:], make([]byte, size+off)[off:], make([]byte, size+off)[off:]
					want := 0
					if slices.Contains(vectorized[dt], op) {
						want = size &^ 15
					}
					if got := vector(op, dt, dst, a, b); got != want {
						t.Errorf("%v/%v, %d elements at byte offset %d: the vector kernel covered %d bytes, want %d", dt, op, n, off, got, want)
					}
				}
			}
		}
	}
}
