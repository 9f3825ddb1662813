//go:build !amd64

package mat

// vectorAdam is nil off amd64: there is no assembly Adam body to test.
var vectorAdam func(w, m, v, g []float64, k *AdamStep)
