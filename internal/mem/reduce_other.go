//go:build !amd64 || race

package mem

// vector is the vector kernels' entry where there are none (another
// architecture, or a race build, which must see every access): it covers
// nothing, and the generic loop reduces every element.
func vector(op ReduceOp, t DataType, dst, a, b []byte) int { return 0 }
