package mat

// foldVec runs FoldPanels' AVX body and reports true, or reports false
// when the CPU lacks AVX.
func foldVec(a, b []float32, ay []float64, list []int32, out *[8]float64) bool {
	if !hasAVX {
		return false
	}
	foldPanelsAVX(a, b, ay, list, out)
	return true
}

// foldPanelsAVX is FoldPanels with VEX-256 converts, multiplies and adds:
// per list entry, one broadcast weight times each panel's four widened
// entries, added into that panel's accumulator. The list must already be
// checked against the panels and ay.
//
//go:noescape
func foldPanelsAVX(a, b []float32, ay []float64, list []int32, out *[8]float64)
