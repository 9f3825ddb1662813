package mat

// hasAVX reports whether the CPU implements AVX and the OS saves the YMM
// registers across context switches (CPUID.1:ECX.OSXSAVE and .AVX, then
// XCR0's SSE and AVX state bits).
var hasAVX = func() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}()

// hasAVX2 reports whether, on top of hasAVX, the CPU implements AVX2
// (CPUID.7.0:EBX.AVX2) and POPCNT (CPUID.1:ECX.POPCNT).
var hasAVX2 = func() bool {
	const popcnt, avx2 = 1 << 23, 1 << 5
	if maxID, _, _, _ := cpuid(0, 0); !hasAVX || maxID < 7 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	_, ebx, _, _ := cpuid(7, 0)
	return ecx&popcnt != 0 && ebx&avx2 != 0
}()

// adamVec runs the 4-wide AVX body over the longest multiple-of-4 prefix
// of w and returns its length, or 0 when the CPU lacks AVX.
func adamVec(w, m, v, g []float64, k *AdamStep) int {
	n := len(w) &^ 3
	if !hasAVX || n == 0 {
		return 0
	}
	adamAVX(w[:n], m[:n], v[:n], g[:n], k)
	return n
}

// adamAVX applies the Adam update to len(w)/4 chunks of four elements with
// VEX-256 multiplies, adds, subtracts, divides and square roots, in Adam's
// evaluation order. m, v and g must be at least as long as w.
//
//go:noescape
func adamAVX(w, m, v, g []float64, k *AdamStep)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
