//go:build !amd64

package mat

// vectorAdam is nil off amd64: there is no assembly Adam body to test.
var vectorAdam func(w, m, v, g []float64, k *AdamStep)

// vectorFold is nil off amd64: there is no assembly FoldPanels body to test.
var vectorFold func(a, b []float32, ay []float64, list []int32, out *[8]float64)

// vectorMatch is nil off amd64: there is no assembly MatchCountsU16 body to
// test.
var vectorMatch func(dst []int32, ldd int, a, b []uint64, m, n, d int)

// vectorGemm is nil off amd64: there is no assembly Gemm body to test.
var vectorGemm func(c []float64, ldc int, a []float64, sI, sK int, b []float64, ldb int, m, n, k int)

// vectorOneHot is nil off amd64: there is no assembly SpGemmOneHot body to
// test.
var vectorOneHot func(c []float64, ldc int, idx []int32, ldi int, w []float64, ldw int, m, d, h int, bias []float64)
