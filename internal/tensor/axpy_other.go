//go:build !amd64

package tensor

// axpy computes dst[j] += a*src[j]; see axpy_amd64.go for the contract.
func axpy(dst, src []float32, a float32) { axpyGeneric(dst, src, a) }
