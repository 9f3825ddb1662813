package mat

// matchVec runs MatchCountsU16's AVX2 body and reports true, or reports
// false when the CPU lacks AVX2 or POPCNT.
func matchVec(dst []int32, ldd int, a, b []uint64, m, n, d int) bool {
	if !hasAVX2 {
		return false
	}
	matchCountsAVX2(dst, ldd, a, b, m, n, d)
	return true
}

// matchCountsAVX2 is MatchCountsU16 with VEX-256 word compares: per row
// pair, each 32-byte chunk of the two packed rows (then a 16- and an 8-byte
// tail) is compared with VPCMPEQW, and VPMOVMSKB + POPCNT counts the equal
// lanes' mask bits, two per lane. The operands must already be checked
// against m, n, d and ldd.
//
//go:noescape
func matchCountsAVX2(dst []int32, ldd int, a, b []uint64, m, n, d int)
