package mat

// vectorAdam is the assembly Adam body the tests call directly, or nil on a
// CPU without AVX.
var vectorAdam = func() func(w, m, v, g []float64, k *AdamStep) {
	if hasAVX {
		return adamAVX
	}
	return nil
}()

// vectorFold is the assembly FoldPanels body the tests call directly, or
// nil on a CPU without AVX.
var vectorFold = func() func(a, b []float32, ay []float64, list []int32, out *[8]float64) {
	if hasAVX {
		return foldPanelsAVX
	}
	return nil
}()

// vectorMatch is the assembly MatchCountsU16 body the tests call directly,
// or nil on a CPU without AVX2 and POPCNT.
var vectorMatch = func() func(dst []int32, ldd int, a, b []uint64, m, n, d int) {
	if hasAVX2 {
		return matchCountsAVX2
	}
	return nil
}()

// vectorGemm is the assembly Gemm/GemmTA micro-kernel the tests call
// directly, or nil on a CPU without AVX.
var vectorGemm = func() func(c []float64, ldc int, a []float64, sI, sK int, b []float64, ldb int, m, n, k int) {
	if hasAVX {
		return gemmAVX
	}
	return nil
}()

// vectorOneHot is the assembly SpGemmOneHot body the tests call directly,
// or nil on a CPU without AVX.
var vectorOneHot = func() func(c []float64, ldc int, idx []int32, ldi int, w []float64, ldw int, m, d, h int, bias []float64) {
	if hasAVX {
		return spGemmOneHotAVX
	}
	return nil
}()
