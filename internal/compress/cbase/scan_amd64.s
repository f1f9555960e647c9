#include "textflag.h"

// func scanSSE(g []float32, t, base uint32, out []uint32) int
//
// Writes base+i to out, in ascending order, for every g[i] whose key
// bits<<1 is at least t (t >= 1), and returns how many it wrote; len(g) is a
// multiple of 16. Baseline SSE2: 16 floats per iteration are shifted
// (PSLLL), biased by 1<<31 so the signed compare orders them as unsigned
// (PXOR), compared with t-1 (PCMPGTL) and folded into a 16-bit mask
// (MOVMSKPS); only a block with a hit leaves the loop, and BSF then writes
// its indices one set bit at a time.
TEXT ·scanSSE(SB), NOSPLIT, $0-64
	MOVQ   g_base+0(FP), SI
	MOVQ   g_len+8(FP), CX
	MOVL   t+24(FP), AX
	SUBL   $1, AX
	XORL   $0x80000000, AX
	MOVL   AX, X0
	PSHUFD $0, X0, X0
	MOVL   $0x80000000, AX
	MOVL   AX, X8
	PSHUFD $0, X8, X8
	MOVL   base+28(FP), R8
	MOVQ   out_base+32(FP), DI
	XORQ   DX, DX
	SHRQ   $4, CX
	JZ     done

loop:
	MOVUPS   (SI), X1
	MOVUPS   16(SI), X2
	MOVUPS   32(SI), X3
	MOVUPS   48(SI), X4
	PSLLL    $1, X1
	PSLLL    $1, X2
	PSLLL    $1, X3
	PSLLL    $1, X4
	PXOR     X8, X1
	PXOR     X8, X2
	PXOR     X8, X3
	PXOR     X8, X4
	PCMPGTL  X0, X1
	PCMPGTL  X0, X2
	PCMPGTL  X0, X3
	PCMPGTL  X0, X4
	MOVMSKPS X1, AX
	MOVMSKPS X2, BX
	SHLL     $4, BX
	ORL      BX, AX
	MOVMSKPS X3, BX
	SHLL     $8, BX
	ORL      BX, AX
	MOVMSKPS X4, BX
	SHLL     $12, BX
	ORL      BX, AX
	JNZ      hits

next:
	ADDQ $64, SI
	ADDL $16, R8
	DECQ CX
	JNZ  loop

done:
	MOVQ DX, ret+56(FP)
	RET

hits:
	BSFL AX, BX
	ADDL R8, BX
	MOVL BX, (DI)(DX*4)
	INCQ DX
	LEAL -1(AX), BX
	ANDL BX, AX
	JNZ  hits
	JMP  next
