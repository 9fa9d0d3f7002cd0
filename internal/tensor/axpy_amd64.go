package tensor

// axpy computes dst[j] += a*src[j] for j in [0, len(dst)); src must be at
// least as long as dst (the assembly reads min(len(dst), len(src)) elements,
// so a short src cannot overrun). It is the inner loop of MatMulInto,
// MatMulTransAInto and AxpyInto.
//
// The SSE2 implementation in axpy_amd64.s multiplies and then adds with
// separate rounding (MULPS, ADDPS; no FMA) and keeps the scalar loop's
// operand order, so every element is bit-identical to axpyGeneric, NaN
// payloads included.
//
//go:noescape
func axpy(dst, src []float32, a float32)
