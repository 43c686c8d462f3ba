#include "textflag.h"

// The AVX2 bodies of elem.go's kernels. Each walks its first n elements (n a
// multiple of four) four lanes per instruction, with the separately rounded
// VMULPD/VADDPD/VSUBPD/VDIVPD/VSQRTPD sequence of the Go body — never an FMA —
// so every lane computes the bits the scalar loop computes. AX is the byte
// offset into every slice, CX the end offset.

// func adamAVX2(w, m, v, grad *float64, n int, c adamConsts, decayed bool)
TEXT ·adamAVX2(SB), NOSPLIT, $0-105
	MOVQ    w+0(FP), DI
	MOVQ    m+8(FP), SI
	MOVQ    v+16(FP), DX
	MOVQ    grad+24(FP), R8
	MOVQ    n+32(FP), CX
	MOVBLZX decayed+104(FP), BX
	VBROADCASTSD c_beta1+40(FP), Y8
	VBROADCASTSD c_oneMinusBeta1+48(FP), Y9
	VBROADCASTSD c_beta2+56(FP), Y10
	VBROADCASTSD c_oneMinusBeta2+64(FP), Y11
	VBROADCASTSD c_bc1+72(FP), Y12
	VBROADCASTSD c_bc2+80(FP), Y13
	VBROADCASTSD c_lr+88(FP), Y14
	VBROADCASTSD c_eps+96(FP), Y15
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
	VMULPD  Y1, Y6, Y2          // 0·w
	VADDPD  Y2, Y0, Y0          // g + 0·w

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

// func spmmRowsAVX2(dst, x *float64, ld, xrows int, rowPtr, rows *int, n, mrows int, col *int, val *float64, nnz, cols int) int
//
// The first cols columns (a multiple of four) of n rows of a sparse-times-
// dense product, packed: dst's k-th row, ld wide, is row i = rows[k] (i = k
// when rows is nil) of the CSR (rowPtr, col, val) times x, whose rows are ld
// wide. Each element is Σ_p val[p]·x[col[p]·ld + j] over the row's entries p
// ascending, from +0, with one VMULPD and one VADDPD per entry in axpyAVX2's
// operand order. Sixteen columns stay in Y0–Y3 across all of the row's
// entries, then four in Y0, and each block is stored once.
//
// Nothing is read unchecked: i must be below mrows, the row's entries must
// lie in [0, nnz) (unsigned compares of start ≤ end ≤ nnz), and each column
// index below xrows before its row of x is read. The result is n, or the k of
// the first row that fails a check. R14 is k, DI the k-th row of dst, R10 and
// R11 the row's first column index and weight, R12 its entry count, BX the
// block's byte offset into a row, AX the entry index and R13 the entry's row
// of x.
TEXT ·spmmRowsAVX2(SB), NOSPLIT, $0-104
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ ld+16(FP), R8
	MOVQ xrows+24(FP), R9
	MOVQ cols+88(FP), CX
	SHLQ $3, R8
	SHLQ $3, CX
	MOVQ CX, DX
	ANDQ $-128, DX              // bytes in whole sixteen-column blocks
	XORQ R14, R14

spmmRow:
	CMPQ  R14, n+48(FP)
	JGE   spmmDone
	MOVQ  R14, R13
	MOVQ  rows+40(FP), R12
	TESTQ R12, R12
	JEQ   spmmRange
	MOVQ  (R12)(R14*8), R13     // i = rows[k]

spmmRange:
	CMPQ R13, mrows+56(FP)
	JCC  spmmBad                // i ≥ mrows, unsigned
	MOVQ rowPtr+32(FP), R12
	MOVQ (R12)(R13*8), R10      // start
	MOVQ 8(R12)(R13*8), R12     // end
	CMPQ R12, nnz+80(FP)
	JHI  spmmBad                // end > nnz
	CMPQ R10, R12
	JHI  spmmBad                // start > end
	SUBQ R10, R12
	MOVQ val+72(FP), R11
	LEAQ (R11)(R10*8), R11
	MOVQ col+64(FP), R13
	LEAQ (R13)(R10*8), R10
	XORQ BX, BX

spmm16:
	CMPQ   BX, DX
	JGE    spmm4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	TESTQ  R12, R12
	JEQ    store16

entry16:
	MOVQ         (R10)(AX*8), R13
	CMPQ         R13, R9
	JCC          spmmBad
	IMULQ        R8, R13
	ADDQ         SI, R13
	VBROADCASTSD (R11)(AX*8), Y15
	VMULPD       (R13)(BX*1), Y15, Y4   // a·x
	VADDPD       Y4, Y0, Y0             // s + a·x
	VMULPD       32(R13)(BX*1), Y15, Y5
	VADDPD       Y5, Y1, Y1
	VMULPD       64(R13)(BX*1), Y15, Y6
	VADDPD       Y6, Y2, Y2
	VMULPD       96(R13)(BX*1), Y15, Y7
	VADDPD       Y7, Y3, Y3
	INCQ         AX
	CMPQ         AX, R12
	JLT          entry16

store16:
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	JMP     spmm16

spmm4:
	CMPQ   BX, CX
	JGE    spmmNext
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	TESTQ  R12, R12
	JEQ    store4

entry4:
	MOVQ         (R10)(AX*8), R13
	CMPQ         R13, R9
	JCC          spmmBad
	IMULQ        R8, R13
	ADDQ         SI, R13
	VBROADCASTSD (R11)(AX*8), Y15
	VMULPD       (R13)(BX*1), Y15, Y4
	VADDPD       Y4, Y0, Y0
	INCQ         AX
	CMPQ         AX, R12
	JLT          entry4

store4:
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     spmm4

spmmNext:
	ADDQ R8, DI
	INCQ R14
	JMP  spmmRow

spmmDone:
spmmBad:
	MOVQ R14, ret+96(FP)
	VZEROUPPER
	RET
