#include "textflag.h"

// func gemmTile4x8AVX2(c *float64, ldc int, a *float64, sai, sak int, b *float64, ldb, kk int)
//
// Y0…Y7 hold the 4×8 tile (row r in Y(2r), Y(2r+1)). Per k: load the eight B
// values once, broadcast each row's A value, multiply, then add — two
// separately rounded instructions per sum, so every lane computes exactly
// what the scalar Go tile computes.
TEXT ·gemmTile4x8AVX2(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R13
	MOVQ a+16(FP), R8
	MOVQ sai+24(FP), R9
	MOVQ sak+32(FP), R10
	MOVQ b+40(FP), R11
	MOVQ ldb+48(FP), R12
	MOVQ kk+56(FP), CX
	SHLQ $3, R9             // strides in bytes
	SHLQ $3, R10
	SHLQ $3, R12
	SHLQ $3, R13
	LEAQ (R8)(R9*1), AX     // A rows 1, 2, 3
	LEAQ (AX)(R9*1), BX
	LEAQ (BX)(R9*1), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop:
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	VBROADCASTSD (R8), Y10
	VBROADCASTSD (AX), Y11
	VMULPD Y8, Y10, Y12
	VMULPD Y9, Y10, Y13
	VMULPD Y8, Y11, Y14
	VMULPD Y9, Y11, Y15
	VADDPD Y12, Y0, Y0
	VADDPD Y13, Y1, Y1
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	VBROADCASTSD (BX), Y10
	VBROADCASTSD (DX), Y11
	VMULPD Y8, Y10, Y12
	VMULPD Y9, Y10, Y13
	VMULPD Y8, Y11, Y14
	VMULPD Y9, Y11, Y15
	VADDPD Y12, Y4, Y4
	VADDPD Y13, Y5, Y5
	VADDPD Y14, Y6, Y6
	VADDPD Y15, Y7, Y7
	ADDQ R10, R8
	ADDQ R10, AX
	ADDQ R10, BX
	ADDQ R10, DX
	ADDQ R12, R11
	DECQ CX
	JNZ  loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R13, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    R13, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    R13, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7             // highest basic leaf
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX    // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX             // the OS saves XMM (bit 1) and YMM (bit 2) state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX             // AVX2
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET
