package tensor

import (
	"math"
	"testing"
)

// TestAxpyMatchesGeneric pins axpy (the SSE2 assembly on amd64) to the pure-Go
// axpyGeneric bit for bit: every length through both vector blocks and the
// scalar tail, unaligned subslices of src and dst, and special values (±0,
// subnormals, ±Inf, NaNs with distinct payloads in src and dst so the
// propagated payload is pinned too). Guard elements around dst must stay
// untouched.
func TestAxpyMatchesGeneric(t *testing.T) {
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		1e-40, -1e-40, math.SmallestNonzeroFloat32, 1.1754942e-38, // subnormals
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -3e38, 1, -1, 0.5,
	}
	srcNaN := math.Float32frombits(0x7fc00011)
	dstNaN := math.Float32frombits(0xffc00022)
	sigNaN := math.Float32frombits(0x7f800033)
	alphas := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 1e-40, 3e38}

	rng := NewRNG(11)
	fill := func(buf []float32, nan float32) {
		for i := range buf {
			switch r := rng.Intn(8); {
			case r < 3:
				buf[i] = special[rng.Intn(len(special))]
			case r == 3:
				buf[i] = nan
			case r == 4:
				buf[i] = sigNaN
			default:
				buf[i] = float32(rng.NormFloat64())
			}
		}
	}

	lengths := []int{67, 288}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	const guard = 3
	for _, n := range lengths {
		for _, off := range [][2]int{{0, 0}, {1, 1}, {1, 3}, {2, 0}, {3, 2}} {
			srcOff, dstOff := off[0], off[1]
			srcBuf := make([]float32, srcOff+n+guard)
			fill(srcBuf, srcNaN)
			src := srcBuf[srcOff : srcOff+n]
			base := make([]float32, dstOff+n+guard)
			fill(base, dstNaN)
			for _, a := range alphas {
				want := append([]float32(nil), base...)
				got := append([]float32(nil), base...)
				axpyGeneric(want[dstOff:dstOff+n], src, a)
				axpy(got[dstOff:dstOff+n], src, a)
				for i := range want {
					if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
						t.Fatalf("n=%d src+%d dst+%d a=%g: element %d (dst index %d) = %#08x, generic %#08x",
							n, srcOff, dstOff, a, i, i-dstOff, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}
