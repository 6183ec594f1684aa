//go:build !race

package mem

import "unsafe"

// The SSE2 kernels (reduce_amd64.s), one for each Sum the benchmarks and
// workloads run: float32 (ADDPS) and float64 (ADDPD). Each reduces
// dst = a + b over the first n bytes with one IEEE addition per element,
// as the generic loop does, and returns how many bytes it covered: all
// but a tail shorter than 16 bytes. SSE2 is part of the amd64 baseline,
// so nothing is detected at run time. Race builds leave the kernels out
// (reduce_other.go): neither the race detector nor checkptr sees inside
// assembly, so -race checks the generic loop, which views bytes through
// unsafe.

//go:noescape
func addps(dst, a, b *byte, n int) int

//go:noescape
func addpd(dst, a, b *byte, n int) int

// vector reduces dst = a op b through (op, t)'s SSE2 kernel, where the
// pair has one, and returns how many bytes it covered: all but a tail
// shorter than 16 bytes, or none. The kernels load and store unaligned,
// so a slice off its element alignment takes them too.
func vector(op ReduceOp, t DataType, dst, a, b []byte) int {
	n := len(dst)
	if op != Sum || n < 16 {
		return 0
	}
	d, x, y := unsafe.SliceData(dst), unsafe.SliceData(a), unsafe.SliceData(b)
	switch t {
	case Float32:
		return addps(d, x, y, n)
	case Float64:
		return addpd(d, x, y, n)
	}
	return 0
}
