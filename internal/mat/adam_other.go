//go:build !amd64

package mat

// adamVec has no vector body off amd64: the scalar loop does every element.
func adamVec(w, m, v, g []float64, k *AdamStep) int { return 0 }
