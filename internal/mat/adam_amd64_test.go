package mat

// vectorAdam is the assembly Adam body the tests call directly, or nil on a
// CPU without AVX.
var vectorAdam = func() func(w, m, v, g []float64, k *AdamStep) {
	if hasAVX {
		return adamAVX
	}
	return nil
}()
