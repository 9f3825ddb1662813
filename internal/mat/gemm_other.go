//go:build !amd64

package mat

// gemmVec has no vector body off amd64: the Go loops run every shape.
func gemmVec(c []float64, ldc int, a []float64, sI, sK int, b []float64, ldb int, m, n, k int) bool {
	return false
}

// oneHotVec has no vector body off amd64: the Go loop runs every shape.
func oneHotVec(c []float64, ldc int, idx []int32, ldi int, w []float64, ldw int, m, d, h int, bias []float64) bool {
	return false
}
