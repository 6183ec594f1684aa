//go:build !race

package mem

// vectorized lists the pairs with an SSE2 kernel.
var vectorized = map[DataType][]ReduceOp{
	Float32: {Sum},
	Float64: {Sum},
}
