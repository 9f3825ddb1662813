package mat

// FoldPanels folds two 4-row panels of a float32 matrix against the weights
// ay over the column list, one sum per panel row:
//
//	out[l]   = Σ_{x in list} ay[x]·float64(a[4x+l])
//	out[4+l] = Σ_{x in list} ay[x]·float64(b[4x+l])   (l = 0..3)
//
// A panel stores the four rows' entries of column x at [4x, 4x+4). Each of
// the eight sums starts at +0 and adds its products in list order, every
// product and add correctly rounded and none fused: the fold of one plain
// row loop, so every lane carries that loop's bits (a NaN's payload aside).
// Lanes are independent, which is what lets the amd64 body hold them in two
// 4-wide accumulators where the CPU and OS support AVX; the Go loop runs
// everywhere else. a and b may be the same panel.
//
// list must be ascending with entries in [0, len(ay)) whose columns lie in
// both panels; FoldPanels panics when its first or last entry does not.
func FoldPanels(a, b []float32, ay []float64, list []int32, out *[8]float64) {
	if len(list) > 0 {
		last := int(list[len(list)-1])
		if list[0] < 0 || last >= len(ay) || 4*last+4 > min(len(a), len(b)) {
			panic("mat: FoldPanels list entry out of range")
		}
	}
	if !foldVec(a, b, ay, list, out) {
		foldPanelsGo(a, b, ay, list, out)
	}
}

// foldPanelsGo is the scalar FoldPanels loop: eight add chains, each in
// list order.
func foldPanelsGo(a, b []float32, ay []float64, list []int32, out *[8]float64) {
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	for _, x := range list {
		w := ay[x]
		pa := a[4*x : 4*x+4 : 4*x+4]
		pb := b[4*x : 4*x+4 : 4*x+4]
		a0 += float64(w * float64(pa[0]))
		a1 += float64(w * float64(pa[1]))
		a2 += float64(w * float64(pa[2]))
		a3 += float64(w * float64(pa[3]))
		b0 += float64(w * float64(pb[0]))
		b1 += float64(w * float64(pb[1]))
		b2 += float64(w * float64(pb[2]))
		b3 += float64(w * float64(pb[3]))
	}
	*out = [8]float64{a0, a1, a2, a3, b0, b1, b2, b3}
}
