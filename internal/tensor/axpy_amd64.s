#include "textflag.h"

// func axpy(a float32, x, y []float32)
//
// y[i] += a*x[i] for i < len(x). SSE2 unless useAVX, unaligned loads and
// stores, 16 floats per iteration with 4- and 1-float tails. The multiply
// (MULPS) and the add (ADDPS) are separate instructions, so every lane
// rounds the product and then the sum exactly as the scalar
// y[i] += float32(a*x[i]) does; the product is the destination of the add,
// as in the code the compiler emits for that statement.
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVSS  a+0(FP), X0
	SHUFPS $0, X0, X0
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	MOVQ   y_base+32(FP), DI
	CMPB   ·useAVX(SB), $0
	JNE    avx
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

// AVX: 32 floats per iteration, VADDPS with the product as its first source.
avx:
	VBROADCASTSS a+0(FP), Y0
	SUBQ         $32, CX
	JLT          vtail8

vloop32:
	VMULPS  (SI), Y0, Y1
	VMULPS  32(SI), Y0, Y2
	VMULPS  64(SI), Y0, Y3
	VMULPS  96(SI), Y0, Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JGE     vloop32

vtail8:
	ADDQ $24, CX // CX = remaining - 8
	JLT  vtail1

vloop8:
	VMULPS  (SI), Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JGE     vloop8

vtail1:
	ADDQ $8, CX // CX = remaining, 0..7
	JEQ  vdone

vloop1:
	VMULSS (SI), X0, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNE    vloop1

vdone:
	VZEROUPPER
	RET

// func scale(s float32, x []float32)
//
// x[i] *= s, SSE2 on every amd64 CPU, with axpy's loop shape: one MULPS per
// 4 lanes, x the destination, so every lane rounds the product once as
// x[i] *= s does.
TEXT ·scale(SB), NOSPLIT, $0-32
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

// func momentumSSE(mu, a float32, g, v, w []float32)
//
// v[i] = mu*v[i] + g[i], then w[i] += a*v[i] (4 lanes, then 1) with MXCSR.FTZ
// (bit 15) set and DAZ clear; the caller's MXCSR is restored before RET.
TEXT ·momentumSSE(SB), NOSPLIT, $8-80
	STMXCSR saved-8(SP)
	STMXCSR ftz-4(SP)
	ORL     $0x8000, ftz-4(SP)
	LDMXCSR ftz-4(SP)
	MOVSS   mu+0(FP), X0
	SHUFPS  $0, X0, X0
	MOVSS   a+4(FP), X1
	SHUFPS  $0, X1, X1
	MOVQ    g_base+8(FP), SI
	MOVQ    g_len+16(FP), CX
	MOVQ    v_base+32(FP), DX
	MOVQ    w_base+56(FP), DI
	XORQ    BX, BX
	SUBQ    $4, CX
	JLT     mtail1

mloop4:
	MOVUPS (DX)(BX*1), X2
	MULPS  X0, X2
	MOVUPS (SI)(BX*1), X3
	ADDPS  X2, X3
	MOVUPS X3, (DX)(BX*1)
	MULPS  X1, X3
	MOVUPS (DI)(BX*1), X4
	ADDPS  X4, X3
	MOVUPS X3, (DI)(BX*1)
	ADDQ   $16, BX
	SUBQ   $4, CX
	JGE    mloop4

mtail1:
	ADDQ $4, CX // CX = remaining, 0..3
	JEQ  mdone

mloop1:
	MOVSS (DX)(BX*1), X2
	MULSS X0, X2
	MOVSS (SI)(BX*1), X3
	ADDSS X2, X3
	MOVSS X3, (DX)(BX*1)
	MULSS X1, X3
	MOVSS (DI)(BX*1), X4
	ADDSS X4, X3
	MOVSS X3, (DI)(BX*1)
	ADDQ  $4, BX
	DECQ  CX
	JNE   mloop1

mdone:
	LDMXCSR saved-8(SP)
	RET

// func cpuAVX() bool
//
// CPUID.1:ECX must report AVX (bit 28) and OSXSAVE (bit 27), and XCR0 the
// SSE and YMM state saved by the OS (bits 1 and 2).
TEXT ·cpuAVX(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   pdone
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	SETEQ ret+0(FP)

pdone:
	RET
