#include "textflag.h"

// func axpySSE(a float32, x, y []float32)
//
// y[i] += a*x[i] for i < len(x). Baseline SSE2 only, unaligned loads and
// stores, 16 floats per iteration with 4- and 1-float tails. The multiply
// (MULPS) and the add (ADDPS) are separate instructions, so every lane
// rounds the product and then the sum exactly as the scalar
// y[i] += float32(a*x[i]) does; the product is the destination of the add,
// as in the code the compiler emits for that statement.
TEXT ·axpySSE(SB), NOSPLIT, $0-56
	MOVSS  a+0(FP), X0
	SHUFPS $0, X0, X0
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	MOVQ   y_base+32(FP), DI
	SUBQ   $16, CX
	JLT    tail4

loop16:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS 32(SI), X3
	MOVUPS 48(SI), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DI), X5
	MOVUPS 16(DI), X6
	MOVUPS 32(DI), X7
	MOVUPS 48(DI), X8
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	ADDPS  X8, X4
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	MOVUPS X3, 32(DI)
	MOVUPS X4, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $16, CX
	JGE    loop16

tail4:
	ADDQ $12, CX // CX = remaining - 4
	JLT  tail1

loop4:
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X5
	ADDPS  X5, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	JGE    loop4

tail1:
	ADDQ $4, CX // CX = remaining, 0..3
	JEQ  done

loop1:
	MOVSS (SI), X1
	MULSS X0, X1
	MOVSS (DI), X5
	ADDSS X5, X1
	MOVSS X1, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNE   loop1

done:
	RET

// func scaleSSE(s float32, x []float32)
//
// x[i] *= s, with axpySSE's loop shape: one MULPS per 4 lanes, x the
// destination, so every lane rounds the product once as x[i] *= s does.
TEXT ·scaleSSE(SB), NOSPLIT, $0-32
	MOVSS  s+0(FP), X0
	SHUFPS $0, X0, X0
	MOVQ   x_base+8(FP), DI
	MOVQ   x_len+16(FP), CX
	SUBQ   $16, CX
	JLT    stail4

sloop16:
	MOVUPS (DI), X1
	MOVUPS 16(DI), X2
	MOVUPS 32(DI), X3
	MOVUPS 48(DI), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	MOVUPS X3, 32(DI)
	MOVUPS X4, 48(DI)
	ADDQ   $64, DI
	SUBQ   $16, CX
	JGE    sloop16

stail4:
	ADDQ $12, CX // CX = remaining - 4
	JLT  stail1

sloop4:
	MOVUPS (DI), X1
	MULPS  X0, X1
	MOVUPS X1, (DI)
	ADDQ   $16, DI
	SUBQ   $4, CX
	JGE    sloop4

stail1:
	ADDQ $4, CX // CX = remaining, 0..3
	JEQ  sdone

sloop1:
	MOVSS (DI), X1
	MULSS X0, X1
	MOVSS X1, (DI)
	ADDQ  $4, DI
	DECQ  CX
	JNE   sloop1

sdone:
	RET
