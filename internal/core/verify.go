package core

import (
	"math"
	"math/cmplx"
)

// ccvPass decides a computational checksum verification: the difference
// |rX − cx| must stay within the distribution-derived η *plus* a relative
// round-off floor proportional to the compared magnitudes. The floor matters
// when the data in a block is far larger than the global input RMS the η was
// derived from (for instance after an unprotected memory corruption): the
// comparison must then still accept the mathematically consistent checksums
// instead of spinning on a permanent false positive. A non-finite checksum
// never verifies: the floor would be infinite too, and Inf <= Inf holds.
func ccvPass(rX, cx complex128, eta float64, blockSize int) bool {
	if cmplx.IsInf(rX) || cmplx.IsInf(cx) || cmplx.IsNaN(rX) || cmplx.IsNaN(cx) {
		return false
	}
	floor := 64 * math.Exp2(-52) * math.Sqrt(float64(blockSize)) * (cmplx.Abs(rX) + cmplx.Abs(cx))
	return cmplx.Abs(rX-cx) <= eta+floor
}
