//go:build !amd64

package mat

// foldVec has no vector body off amd64: the Go loop folds every panel.
func foldVec(a, b []float32, ay []float64, list []int32, out *[8]float64) bool { return false }
