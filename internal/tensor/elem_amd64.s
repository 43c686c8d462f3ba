#include "textflag.h"

// The AVX2 bodies of elem.go's kernels. Each walks its first n elements (n a
// multiple of four) four lanes per instruction, with the separately rounded
// VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD sequence of the Go body — never an FMA —
// so every lane computes the bits the scalar loop computes. AX is the byte
// offset into every slice, CX the end offset.

// func adamAVX2(w, m, v, grad *float64, n int, c adamConsts, decayed bool)
TEXT ·adamAVX2(SB), NOSPLIT, $0-113
	MOVQ    w+0(FP), DI
	MOVQ    m+8(FP), SI
	MOVQ    v+16(FP), DX
	MOVQ    grad+24(FP), R8
	MOVQ    n+32(FP), CX
	MOVBLZX decayed+112(FP), BX
	VBROADCASTSD c_beta1+40(FP), Y8
	VBROADCASTSD c_oneMinusBeta1+48(FP), Y9
	VBROADCASTSD c_beta2+56(FP), Y10
	VBROADCASTSD c_oneMinusBeta2+64(FP), Y11
	VBROADCASTSD c_bc1+72(FP), Y12
	VBROADCASTSD c_bc2+80(FP), Y13
	VBROADCASTSD c_lr+88(FP), Y14
	VBROADCASTSD c_eps+96(FP), Y15
	VBROADCASTSD c_decay+104(FP), Y7
	VXORPD  Y6, Y6, Y6
	SHLQ    $3, CX
	XORQ    AX, AX
	TESTQ   CX, CX
	JEQ     adamDone

adamLoop:
	VMOVUPD (R8)(AX*1), Y0      // g
	VMOVUPD (DI)(AX*1), Y1      // w
	TESTQ   BX, BX
	JEQ     adamMoments
	VMULPD  Y1, Y7, Y2          // decay·w
	VADDPD  Y2, Y0, Y0          // g + decay·w

adamMoments:
	VMULPD  (SI)(AX*1), Y8, Y2  // β₁·m
	VMULPD  Y0, Y9, Y3          // (1 − β₁)·g
	VADDPD  Y3, Y2, Y2          // m
	VMOVUPD Y2, (SI)(AX*1)
	VMULPD  (DX)(AX*1), Y10, Y3 // β₂·v
	VMULPD  Y0, Y11, Y4         // (1 − β₂)·g
	VMULPD  Y0, Y4, Y4          // ((1 − β₂)·g)·g
	VADDPD  Y4, Y3, Y3          // v
	VMOVUPD Y3, (DX)(AX*1)
	VDIVPD  Y12, Y2, Y2         // m / bc1
	VMULPD  Y2, Y14, Y2         // lr·(m / bc1)
	VDIVPD  Y13, Y3, Y3         // v / bc2
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3         // √(v / bc2) + ε
	VDIVPD  Y3, Y2, Y2
	VSUBPD  Y2, Y1, Y1          // w − …
	VMOVUPD Y1, (DI)(AX*1)
	VMOVUPD Y6, (R8)(AX*1)      // g = 0
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     adamLoop

adamDone:
	VZEROUPPER
	RET

// func reluAVX2(dst, x *float64, n int)
//
// dst = x AND (x > 0, ordered): the mask is all ones where x > 0 and zero
// elsewhere, NaN included, so −0 and NaN become +0.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y15, Y15, Y15
	SHLQ   $3, CX
	XORQ   AX, AX
	TESTQ  CX, CX
	JEQ    reluDone

reluLoop:
	VMOVUPD (SI)(AX*1), Y0
	VCMPPD  $0x1e, Y15, Y0, Y1  // GT_OQ: x > 0
	VANDPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     reluLoop

reluDone:
	VZEROUPPER
	RET

// func reluMaskAVX2(x, dy *float64, n int)
//
// dy = dy AND !(x <= 0, unordered): the mask is all ones where x > 0 or x is
// NaN, so a NaN pre-activation keeps dy, as the scalar `if x <= 0` does.
TEXT ·reluMaskAVX2(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   dy+8(FP), DI
	MOVQ   n+16(FP), CX
	VXORPD Y15, Y15, Y15
	SHLQ   $3, CX
	XORQ   AX, AX
	TESTQ  CX, CX
	JEQ    maskDone

maskLoop:
	VMOVUPD (SI)(AX*1), Y0
	VCMPPD  $0x16, Y15, Y0, Y1  // NLE_UQ: !(x <= 0)
	VANDPD  (DI)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     maskLoop

maskDone:
	VZEROUPPER
	RET

// func addVecAVX2(x, y *float64, n int)
TEXT ·addVecAVX2(SB), NOSPLIT, $0-24
	MOVQ  x+0(FP), SI
	MOVQ  y+8(FP), DI
	MOVQ  n+16(FP), CX
	SHLQ  $3, CX
	XORQ  AX, AX
	TESTQ CX, CX
	JEQ   addDone

addLoop:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0  // y + x
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     addLoop

addDone:
	VZEROUPPER
	RET

// func axpyAVX2(a float64, x, y *float64, n int)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Y15
	MOVQ  x+8(FP), SI
	MOVQ  y+16(FP), DI
	MOVQ  n+24(FP), CX
	SHLQ  $3, CX
	XORQ  AX, AX
	TESTQ CX, CX
	JEQ   axpyDone

axpyLoop:
	VMULPD  (SI)(AX*1), Y15, Y1 // a·x
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  Y1, Y0, Y0          // y + a·x
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     axpyLoop

axpyDone:
	VZEROUPPER
	RET

// func firstAboveAVX2(x *float64, n int, t float64) int
//
// The index of the first of the n elements with !(x <= t), unordered
// (NLE_UQ, so NaN stops the scan as the scalar `!(x <= t)` does), or n. Eight
// lanes per iteration while eight remain, then one four-lane step. AX is the
// element index, DX the end of the eight-lane part.
TEXT ·firstAboveAVX2(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD t+16(FP), Y15
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	TESTQ        DX, DX
	JEQ          above4

above8:
	VMOVUPD   (SI)(AX*8), Y0
	VMOVUPD   32(SI)(AX*8), Y1
	VCMPPD    $0x16, Y15, Y0, Y0 // NLE_UQ: !(x <= t)
	VCMPPD    $0x16, Y15, Y1, Y1
	VORPD     Y0, Y1, Y2
	VMOVMSKPD Y2, BX
	TESTQ     BX, BX
	JNE       found8
	ADDQ      $8, AX
	CMPQ      AX, DX
	JLT       above8

above4:
	CMPQ      AX, CX
	JGE       none
	VMOVUPD   (SI)(AX*8), Y0
	VCMPPD    $0x16, Y15, Y0, Y0
	VMOVMSKPD Y0, BX
	TESTQ     BX, BX
	JNE       found

none:
	MOVQ CX, ret+24(FP)
	VZEROUPPER
	RET

found8:
	VMOVMSKPD Y0, BX
	TESTQ     BX, BX
	JNE       found
	ADDQ      $4, AX
	VMOVMSKPD Y1, BX

found:
	BSFQ BX, BX
	ADDQ BX, AX
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
