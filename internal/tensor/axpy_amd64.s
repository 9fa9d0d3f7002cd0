#include "textflag.h"

// func axpy(dst, src []float32, a float32)
//
// Eight lanes per iteration, then at most one block of four, then a scalar
// tail. Each lane is MUL(src, a), then ADD(product, dst) with the product as
// destination operand: the order the Go compiler emits for
// `dst[j] += a * src[j]`, so the same NaN propagates.
TEXT ·axpy(SB), NOSPLIT, $0-52
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), DX
	CMPQ    DX, CX
	CMOVQLT DX, CX              // n = min(len(dst), len(src))
	MOVSS   a+48(FP), X0
	SHUFPS  $0x00, X0, X0       // broadcast a to all four lanes

loop8:
	CMPQ   CX, $8
	JLT    block4
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MULPS  X0, X1
	MULPS  X0, X2
	MOVUPS (DI), X3
	MOVUPS 16(DI), X4
	ADDPS  X3, X1
	ADDPS  X4, X2
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	SUBQ   $8, CX
	JMP    loop8

block4:
	CMPQ   CX, $4
	JLT    tail
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X3
	ADDPS  X3, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX

tail:
	TESTQ CX, CX
	JEQ   done
	MOVSS (SI), X1
	MULSS X0, X1
	ADDSS (DI), X1
	MOVSS X1, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JMP   tail

done:
	RET
