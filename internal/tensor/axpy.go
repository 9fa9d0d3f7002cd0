package tensor

// axpyGeneric computes dst[j] += a*src[j] for j in [0, len(dst)); src must be
// at least as long as dst. It is the portable form of axpy and the oracle the
// assembly is tested against. On amd64 the compiler never fuses the multiply
// and add, so each element is one rounded multiply and one rounded add;
// arm64 fuses them into FMADDS, as it did for the matmul loops this replaces.
func axpyGeneric(dst, src []float32, a float32) {
	src = src[:len(dst)]
	for j, s := range src {
		dst[j] += a * s
	}
}
