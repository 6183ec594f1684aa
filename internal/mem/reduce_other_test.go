//go:build !amd64 || race

package mem

// vectorized lists the pairs with a vector kernel: none in this build.
var vectorized map[DataType][]ReduceOp
