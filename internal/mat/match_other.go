//go:build !amd64

package mat

// matchVec has no vector body off amd64: the SWAR loop counts every pair.
func matchVec(dst []int32, ldd int, a, b []uint64, m, n, d int) bool { return false }
