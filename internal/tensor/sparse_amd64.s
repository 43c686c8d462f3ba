#include "textflag.h"

// The sparse kernels the NeuMF tower runs beside spmmRowsAVX2
// (elem_amd64.s): the ZMM form of spmmRows, the transposed ("scatter") SpMM
// and the two ReLU compressions that write a CSR as they go, each in AVX-512
// and AVX2 forms, and the AVX2 transpose behind Matrix.TransposeInto. Every
// product element is one sum from +0 with one VMULPD and one VADDPD per
// entry in axpyAVX2's operand order — never an FMA — so each lane computes
// the bits of the Go bodies in sparse.go. The ZMM forms use only AVX512F
// instructions; the compressions count kept lanes with POPCNT, which every
// AVX2 CPU implements.

// iota8 is the column offsets of one eight-lane block.
DATA iota8<>+0(SB)/8, $0
DATA iota8<>+8(SB)/8, $1
DATA iota8<>+16(SB)/8, $2
DATA iota8<>+24(SB)/8, $3
DATA iota8<>+32(SB)/8, $4
DATA iota8<>+40(SB)/8, $5
DATA iota8<>+48(SB)/8, $6
DATA iota8<>+56(SB)/8, $7
GLOBL iota8<>(SB), RODATA|NOPTR, $64

// func spmmRowsAVX512(dst, x *float64, ld, xrows int, rowPtr, rows *int, n, mrows int, col *int, val *float64, nnz, cols int) int
//
// spmmRowsAVX2 over ZMM registers: cols is a multiple of 32, and each row's
// sums stay in Z0–Z7 sixty-four columns at a time, then in Z0–Z3 for a last
// thirty-two, across all of its entries. The checks, registers and result
// are spmmRowsAVX2's.
TEXT ·spmmRowsAVX512(SB), NOSPLIT, $0-104
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ ld+16(FP), R8
	MOVQ xrows+24(FP), R9
	MOVQ cols+88(FP), CX
	SHLQ $3, R8
	SHLQ $3, CX
	MOVQ CX, DX
	ANDQ $-512, DX              // bytes in whole sixty-four-column blocks
	XORQ R14, R14

zRow:
	CMPQ  R14, n+48(FP)
	JGE   zDone
	MOVQ  R14, R13
	MOVQ  rows+40(FP), R12
	TESTQ R12, R12
	JEQ   zRange
	MOVQ  (R12)(R14*8), R13     // i = rows[k]

zRange:
	CMPQ R13, mrows+56(FP)
	JCC  zDone                  // i ≥ mrows, unsigned
	MOVQ rowPtr+32(FP), R12
	MOVQ (R12)(R13*8), R10      // start
	MOVQ 8(R12)(R13*8), R12     // end
	CMPQ R12, nnz+80(FP)
	JHI  zDone                  // end > nnz
	CMPQ R10, R12
	JHI  zDone                  // start > end
	SUBQ R10, R12
	MOVQ val+72(FP), R11
	LEAQ (R11)(R10*8), R11
	MOVQ col+64(FP), R13
	LEAQ (R13)(R10*8), R10
	XORQ BX, BX

z64:
	CMPQ   BX, DX
	JGE    z32
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ   AX, AX
	TESTQ  R12, R12
	JEQ    zStore64

zEntry64:
	MOVQ         (R10)(AX*8), R13
	CMPQ         R13, R9
	JCC          zDone
	IMULQ        R8, R13
	ADDQ         SI, R13
	VBROADCASTSD (R11)(AX*8), Z31
	VMULPD       (R13)(BX*1), Z31, Z8   // a·x
	VADDPD       Z8, Z0, Z0             // s + a·x
	VMULPD       64(R13)(BX*1), Z31, Z9
	VADDPD       Z9, Z1, Z1
	VMULPD       128(R13)(BX*1), Z31, Z10
	VADDPD       Z10, Z2, Z2
	VMULPD       192(R13)(BX*1), Z31, Z11
	VADDPD       Z11, Z3, Z3
	VMULPD       256(R13)(BX*1), Z31, Z12
	VADDPD       Z12, Z4, Z4
	VMULPD       320(R13)(BX*1), Z31, Z13
	VADDPD       Z13, Z5, Z5
	VMULPD       384(R13)(BX*1), Z31, Z14
	VADDPD       Z14, Z6, Z6
	VMULPD       448(R13)(BX*1), Z31, Z15
	VADDPD       Z15, Z7, Z7
	INCQ         AX
	CMPQ         AX, R12
	JLT          zEntry64

zStore64:
	VMOVUPD Z0, (DI)(BX*1)
	VMOVUPD Z1, 64(DI)(BX*1)
	VMOVUPD Z2, 128(DI)(BX*1)
	VMOVUPD Z3, 192(DI)(BX*1)
	VMOVUPD Z4, 256(DI)(BX*1)
	VMOVUPD Z5, 320(DI)(BX*1)
	VMOVUPD Z6, 384(DI)(BX*1)
	VMOVUPD Z7, 448(DI)(BX*1)
	ADDQ    $512, BX
	JMP     z64

z32:
	CMPQ   BX, CX
	JGE    zNext
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	XORQ   AX, AX
	TESTQ  R12, R12
	JEQ    zStore32

zEntry32:
	MOVQ         (R10)(AX*8), R13
	CMPQ         R13, R9
	JCC          zDone
	IMULQ        R8, R13
	ADDQ         SI, R13
	VBROADCASTSD (R11)(AX*8), Z31
	VMULPD       (R13)(BX*1), Z31, Z8
	VADDPD       Z8, Z0, Z0
	VMULPD       64(R13)(BX*1), Z31, Z9
	VADDPD       Z9, Z1, Z1
	VMULPD       128(R13)(BX*1), Z31, Z10
	VADDPD       Z10, Z2, Z2
	VMULPD       192(R13)(BX*1), Z31, Z11
	VADDPD       Z11, Z3, Z3
	INCQ         AX
	CMPQ         AX, R12
	JLT          zEntry32

zStore32:
	VMOVUPD Z0, (DI)(BX*1)
	VMOVUPD Z1, 64(DI)(BX*1)
	VMOVUPD Z2, 128(DI)(BX*1)
	VMOVUPD Z3, 192(DI)(BX*1)
	ADDQ    $256, BX
	JMP     z32

zNext:
	ADDQ R8, DI
	INCQ R14
	JMP  zRow

zDone:
	MOVQ R14, ret+96(FP)
	VZEROUPPER
	RET

// func spmmTAVX2(dst, x *float64, ld, drows int, rowPtr *int, n int, col *int, val *float64, nnz, cols int) int
//
// The first cols columns (a multiple of four) of the transposed product
// dst = Cᵀ·x, where C is the n-row CSR (rowPtr, col, val) and x has n rows;
// dst has drows rows, and both are ld wide. One pass over C's rows: row k's
// block of x stays in registers — sixteen columns in Y8–Y11, then four in
// Y8 — while each of its entries (column i, weight a) adds a·x into dst's
// row i in axpyAVX2's operand order, entries in order. dst must hold +0
// where it has not been added to.
//
// Row k's entries must lie in [0, nnz) (start ≤ end ≤ nnz, unsigned) and each
// column index below drows before its row of dst is touched. The result is
// n, or the k of the first row that fails a check. R14 is k, SI row k of x,
// R10 and R11 the row's first column index and weight, R12 its entry count,
// BX the block's byte offset into a row, AX the entry index and R13 the
// entry's row of dst.
TEXT ·spmmTAVX2(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ ld+16(FP), R8
	MOVQ drows+24(FP), R9
	MOVQ cols+72(FP), CX
	SHLQ $3, R8
	SHLQ $3, CX
	MOVQ CX, DX
	ANDQ $-128, DX              // bytes in whole sixteen-column blocks
	XORQ R14, R14

tRow:
	CMPQ R14, n+40(FP)
	JGE  tDone
	MOVQ rowPtr+32(FP), R12
	MOVQ (R12)(R14*8), R10      // start
	MOVQ 8(R12)(R14*8), R12     // end
	CMPQ R12, nnz+64(FP)
	JHI  tDone                  // end > nnz
	CMPQ R10, R12
	JHI  tDone                  // start > end
	SUBQ R10, R12
	MOVQ val+56(FP), R11
	LEAQ (R11)(R10*8), R11
	MOVQ col+48(FP), R13
	LEAQ (R13)(R10*8), R10
	XORQ BX, BX

t16:
	CMPQ    BX, DX
	JGE     t4
	VMOVUPD (SI)(BX*1), Y8
	VMOVUPD 32(SI)(BX*1), Y9
	VMOVUPD 64(SI)(BX*1), Y10
	VMOVUPD 96(SI)(BX*1), Y11
	XORQ    AX, AX
	TESTQ   R12, R12
	JEQ     tNext16

tEntry16:
	MOVQ         (R10)(AX*8), R13
	CMPQ         R13, R9
	JCC          tDone
	IMULQ        R8, R13
	ADDQ         DI, R13
	VBROADCASTSD (R11)(AX*8), Y15
	VMULPD       Y8, Y15, Y4        // a·x
	VMOVUPD      (R13)(BX*1), Y0
	VADDPD       Y4, Y0, Y0         // d + a·x
	VMOVUPD      Y0, (R13)(BX*1)
	VMULPD       Y9, Y15, Y5
	VMOVUPD      32(R13)(BX*1), Y1
	VADDPD       Y5, Y1, Y1
	VMOVUPD      Y1, 32(R13)(BX*1)
	VMULPD       Y10, Y15, Y6
	VMOVUPD      64(R13)(BX*1), Y2
	VADDPD       Y6, Y2, Y2
	VMOVUPD      Y2, 64(R13)(BX*1)
	VMULPD       Y11, Y15, Y7
	VMOVUPD      96(R13)(BX*1), Y3
	VADDPD       Y7, Y3, Y3
	VMOVUPD      Y3, 96(R13)(BX*1)
	INCQ         AX
	CMPQ         AX, R12
	JLT          tEntry16

tNext16:
	ADDQ $128, BX
	JMP  t16

t4:
	CMPQ    BX, CX
	JGE     tNext
	VMOVUPD (SI)(BX*1), Y8
	XORQ    AX, AX
	TESTQ   R12, R12
	JEQ     tNext4

tEntry4:
	MOVQ         (R10)(AX*8), R13
	CMPQ         R13, R9
	JCC          tDone
	IMULQ        R8, R13
	ADDQ         DI, R13
	VBROADCASTSD (R11)(AX*8), Y15
	VMULPD       Y8, Y15, Y4
	VMOVUPD      (R13)(BX*1), Y0
	VADDPD       Y4, Y0, Y0
	VMOVUPD      Y0, (R13)(BX*1)
	INCQ         AX
	CMPQ         AX, R12
	JLT          tEntry4

tNext4:
	ADDQ $32, BX
	JMP  t4

tNext:
	ADDQ R8, SI
	INCQ R14
	JMP  tRow

tDone:
	MOVQ R14, ret+80(FP)
	VZEROUPPER
	RET

// func spmmTAVX512(dst, x *float64, ld, drows int, rowPtr *int, n int, col *int, val *float64, nnz, cols int) int
//
// spmmTAVX2 over ZMM registers: cols is a multiple of sixteen, and row k's
// block of x stays in Z16–Z23 sixty-four columns at a time, then in Z16–Z19
// for a thirty-two and in Z16–Z17 for a sixteen that remain. The checks,
// registers and result are spmmTAVX2's.
TEXT ·spmmTAVX512(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ ld+16(FP), R8
	MOVQ drows+24(FP), R9
	MOVQ cols+72(FP), CX
	SHLQ $3, R8
	SHLQ $3, CX
	MOVQ CX, DX
	ANDQ $-512, DX              // bytes in whole sixty-four-column blocks
	MOVQ CX, R15
	ANDQ $-256, R15             // and in whole thirty-two-column blocks
	XORQ R14, R14

uRow:
	CMPQ R14, n+40(FP)
	JGE  uDone
	MOVQ rowPtr+32(FP), R12
	MOVQ (R12)(R14*8), R10
	MOVQ 8(R12)(R14*8), R12
	CMPQ R12, nnz+64(FP)
	JHI  uDone
	CMPQ R10, R12
	JHI  uDone
	SUBQ R10, R12
	MOVQ val+56(FP), R11
	LEAQ (R11)(R10*8), R11
	MOVQ col+48(FP), R13
	LEAQ (R13)(R10*8), R10
	XORQ BX, BX

u64:
	CMPQ    BX, DX
	JGE     u32
	VMOVUPD (SI)(BX*1), Z16
	VMOVUPD 64(SI)(BX*1), Z17
	VMOVUPD 128(SI)(BX*1), Z18
	VMOVUPD 192(SI)(BX*1), Z19
	VMOVUPD 256(SI)(BX*1), Z20
	VMOVUPD 320(SI)(BX*1), Z21
	VMOVUPD 384(SI)(BX*1), Z22
	VMOVUPD 448(SI)(BX*1), Z23
	XORQ    AX, AX
	TESTQ   R12, R12
	JEQ     uNext64

uEntry64:
	MOVQ         (R10)(AX*8), R13
	CMPQ         R13, R9
	JCC          uDone
	IMULQ        R8, R13
	ADDQ         DI, R13
	VBROADCASTSD (R11)(AX*8), Z31
	VMULPD       Z16, Z31, Z8       // a·x
	VMOVUPD      (R13)(BX*1), Z0
	VADDPD       Z8, Z0, Z0         // d + a·x
	VMOVUPD      Z0, (R13)(BX*1)
	VMULPD       Z17, Z31, Z9
	VMOVUPD      64(R13)(BX*1), Z1
	VADDPD       Z9, Z1, Z1
	VMOVUPD      Z1, 64(R13)(BX*1)
	VMULPD       Z18, Z31, Z10
	VMOVUPD      128(R13)(BX*1), Z2
	VADDPD       Z10, Z2, Z2
	VMOVUPD      Z2, 128(R13)(BX*1)
	VMULPD       Z19, Z31, Z11
	VMOVUPD      192(R13)(BX*1), Z3
	VADDPD       Z11, Z3, Z3
	VMOVUPD      Z3, 192(R13)(BX*1)
	VMULPD       Z20, Z31, Z12
	VMOVUPD      256(R13)(BX*1), Z4
	VADDPD       Z12, Z4, Z4
	VMOVUPD      Z4, 256(R13)(BX*1)
	VMULPD       Z21, Z31, Z13
	VMOVUPD      320(R13)(BX*1), Z5
	VADDPD       Z13, Z5, Z5
	VMOVUPD      Z5, 320(R13)(BX*1)
	VMULPD       Z22, Z31, Z14
	VMOVUPD      384(R13)(BX*1), Z6
	VADDPD       Z14, Z6, Z6
	VMOVUPD      Z6, 384(R13)(BX*1)
	VMULPD       Z23, Z31, Z15
	VMOVUPD      448(R13)(BX*1), Z7
	VADDPD       Z15, Z7, Z7
	VMOVUPD      Z7, 448(R13)(BX*1)
	INCQ         AX
	CMPQ         AX, R12
	JLT          uEntry64

uNext64:
	ADDQ $512, BX
	JMP  u64

u32:
	CMPQ    BX, R15
	JGE     u16
	VMOVUPD (SI)(BX*1), Z16
	VMOVUPD 64(SI)(BX*1), Z17
	VMOVUPD 128(SI)(BX*1), Z18
	VMOVUPD 192(SI)(BX*1), Z19
	XORQ    AX, AX
	TESTQ   R12, R12
	JEQ     uNext32

uEntry32:
	MOVQ         (R10)(AX*8), R13
	CMPQ         R13, R9
	JCC          uDone
	IMULQ        R8, R13
	ADDQ         DI, R13
	VBROADCASTSD (R11)(AX*8), Z31
	VMULPD       Z16, Z31, Z8
	VMOVUPD      (R13)(BX*1), Z0
	VADDPD       Z8, Z0, Z0
	VMOVUPD      Z0, (R13)(BX*1)
	VMULPD       Z17, Z31, Z9
	VMOVUPD      64(R13)(BX*1), Z1
	VADDPD       Z9, Z1, Z1
	VMOVUPD      Z1, 64(R13)(BX*1)
	VMULPD       Z18, Z31, Z10
	VMOVUPD      128(R13)(BX*1), Z2
	VADDPD       Z10, Z2, Z2
	VMOVUPD      Z2, 128(R13)(BX*1)
	VMULPD       Z19, Z31, Z11
	VMOVUPD      192(R13)(BX*1), Z3
	VADDPD       Z11, Z3, Z3
	VMOVUPD      Z3, 192(R13)(BX*1)
	INCQ         AX
	CMPQ         AX, R12
	JLT          uEntry32

uNext32:
	ADDQ $256, BX
	JMP  u32

u16:
	CMPQ    BX, CX
	JGE     uNext
	VMOVUPD (SI)(BX*1), Z16
	VMOVUPD 64(SI)(BX*1), Z17
	XORQ    AX, AX
	TESTQ   R12, R12
	JEQ     uNext16

uEntry16:
	MOVQ         (R10)(AX*8), R13
	CMPQ         R13, R9
	JCC          uDone
	IMULQ        R8, R13
	ADDQ         DI, R13
	VBROADCASTSD (R11)(AX*8), Z31
	VMULPD       Z16, Z31, Z8
	VMOVUPD      (R13)(BX*1), Z0
	VADDPD       Z8, Z0, Z0
	VMOVUPD      Z0, (R13)(BX*1)
	VMULPD       Z17, Z31, Z9
	VMOVUPD      64(R13)(BX*1), Z1
	VADDPD       Z9, Z1, Z1
	VMOVUPD      Z1, 64(R13)(BX*1)
	INCQ         AX
	CMPQ         AX, R12
	JLT          uEntry16

uNext16:
	ADDQ $128, BX
	JMP  u16

uNext:
	ADDQ R8, SI
	INCQ R14
	JMP  uRow

uDone:
	MOVQ R14, ret+80(FP)
	VZEROUPPER
	RET

// func reluCSRAVX512(val *float64, col, rowPtr *int, z *float64, rows, cols int)
//
// ReLU(z) as a CSR: for each of the rows rows of z (cols wide), the elements
// with z > 0 (GT_OQ, so NaN is left out) are compressed, eight lanes at a
// time, into val and their column indices into col, and rowPtr[i+1] is set to
// the entries written so far. val and col must hold rows·cols elements: a
// whole block's compressed lanes are stored at once, past the entries it
// keeps but never past the elements read so far. The block of the last
// cols mod 8 columns is loaded, compared and stored under a lane mask. DX is
// row i of z, R12 the entries written, BX the column, Z0 the block's column
// indices, Z13 eight in every lane, Z15 zero and K2 the tail's lanes.
TEXT ·reluCSRAVX512(SB), NOSPLIT, $0-48
	MOVQ      val+0(FP), DI
	MOVQ      col+8(FP), SI
	MOVQ      rowPtr+16(FP), R8
	MOVQ      z+24(FP), DX
	MOVQ      rows+32(FP), R9
	MOVQ      cols+40(FP), R11
	VPXORQ    Z15, Z15, Z15
	MOVQ      $8, AX
	VPBROADCASTQ AX, Z13
	MOVQ      R11, CX
	ANDQ      $7, CX
	MOVQ      $1, AX
	SHLQ      CX, AX
	DECQ      AX
	KMOVW     AX, K2
	MOVQ      R11, R10
	ANDQ      $-8, R10             // columns in whole blocks
	XORQ      R12, R12
	XORQ      R13, R13

rRow:
	CMPQ      R13, R9
	JGE       rDone
	VMOVDQU64 iota8<>(SB), Z0
	XORQ      BX, BX

rBlock:
	CMPQ        BX, R10
	JGE         rTail
	VMOVUPD     (DX)(BX*8), Z1
	VCMPPD      $0x1e, Z15, Z1, K1 // GT_OQ: z > 0
	VCOMPRESSPD.Z Z1, K1, Z2
	VPCOMPRESSQ.Z Z0, K1, Z3
	VMOVUPD     Z2, (DI)(R12*8)
	VMOVDQU64   Z3, (SI)(R12*8)
	KMOVW       K1, AX
	POPCNTL     AX, AX
	ADDQ        AX, R12
	VPADDQ      Z13, Z0, Z0
	ADDQ        $8, BX
	JMP         rBlock

rTail:
	CMPQ        BX, R11
	JGE         rRowEnd
	VMOVUPD.Z   (DX)(BX*8), K2, Z1
	VCMPPD      $0x1e, Z15, Z1, K2, K1
	VCOMPRESSPD Z1, K1, (DI)(R12*8)
	VPCOMPRESSQ Z0, K1, (SI)(R12*8)
	KMOVW       K1, AX
	POPCNTL     AX, AX
	ADDQ        AX, R12

rRowEnd:
	MOVQ R12, 8(R8)(R13*8)
	LEAQ (DX)(R11*8), DX
	INCQ R13
	JMP  rRow

rDone:
	VZEROUPPER
	RET

// func reluMaskCSRAVX512(val *float64, col, rowPtr *int, z, dy *float64, rows, cols int)
//
// reluMaskAVX2 that also writes its output as a CSR: dy = dy where
// !(z <= 0) (NLE_UQ, so a NaN pre-activation keeps dy) and +0 elsewhere, and
// the kept lanes, dy's values ±0 included, are compressed into val with
// their column indices into col, as reluCSRAVX512 does. Registers are
// reluCSRAVX512's, with R14 row i of dy.
TEXT ·reluMaskCSRAVX512(SB), NOSPLIT, $0-56
	MOVQ      val+0(FP), DI
	MOVQ      col+8(FP), SI
	MOVQ      rowPtr+16(FP), R8
	MOVQ      z+24(FP), DX
	MOVQ      dy+32(FP), R14
	MOVQ      rows+40(FP), R9
	MOVQ      cols+48(FP), R11
	VPXORQ    Z15, Z15, Z15
	MOVQ      $8, AX
	VPBROADCASTQ AX, Z13
	MOVQ      R11, CX
	ANDQ      $7, CX
	MOVQ      $1, AX
	SHLQ      CX, AX
	DECQ      AX
	KMOVW     AX, K2
	MOVQ      R11, R10
	ANDQ      $-8, R10
	XORQ      R12, R12
	XORQ      R13, R13

mRow:
	CMPQ      R13, R9
	JGE       mDone
	VMOVDQU64 iota8<>(SB), Z0
	XORQ      BX, BX

mBlock:
	CMPQ        BX, R10
	JGE         mTail
	VMOVUPD     (DX)(BX*8), Z1
	VCMPPD      $0x16, Z15, Z1, K1 // NLE_UQ: !(z <= 0)
	VMOVUPD.Z   (R14)(BX*8), K1, Z2
	VMOVUPD     Z2, (R14)(BX*8)
	VCOMPRESSPD.Z Z2, K1, Z2
	VPCOMPRESSQ.Z Z0, K1, Z3
	VMOVUPD     Z2, (DI)(R12*8)
	VMOVDQU64   Z3, (SI)(R12*8)
	KMOVW       K1, AX
	POPCNTL     AX, AX
	ADDQ        AX, R12
	VPADDQ      Z13, Z0, Z0
	ADDQ        $8, BX
	JMP         mBlock

mTail:
	CMPQ        BX, R11
	JGE         mRowEnd
	VMOVUPD.Z   (DX)(BX*8), K2, Z1
	VCMPPD      $0x16, Z15, Z1, K2, K1
	VMOVUPD.Z   (R14)(BX*8), K1, Z2
	VMOVUPD     Z2, K2, (R14)(BX*8)
	VCOMPRESSPD Z2, K1, (DI)(R12*8)
	VPCOMPRESSQ Z0, K1, (SI)(R12*8)
	KMOVW       K1, AX
	POPCNTL     AX, AX
	ADDQ        AX, R12

mRowEnd:
	MOVQ R12, 8(R8)(R13*8)
	LEAQ (DX)(R11*8), DX
	LEAQ (R14)(R11*8), R14
	INCQ R13
	JMP  mRow

mDone:
	VZEROUPPER
	RET

// iota4 is the column offsets of one four-lane block.
DATA iota4<>+0(SB)/8, $0
DATA iota4<>+8(SB)/8, $1
DATA iota4<>+16(SB)/8, $2
DATA iota4<>+24(SB)/8, $3
GLOBL iota4<>(SB), RODATA|NOPTR, $32

// func reluCSRAVX2(val *float64, col, rowPtr *int, z *float64, rows, cols int)
//
// reluCSRAVX512 four lanes at a time: a block's z > 0 lanes (GT_OQ) are
// moved to its front by VPERMPS under compressPerm's entry for the block's
// lane mask, values and column indices alike, and all four lanes are
// stored. val and col must hold rows·cols + 3 elements: a store runs up to
// three lanes past the elements read so far. The last cols mod 4 columns are
// loaded under the lane mask Y13, so the lanes past the row read as +0 and
// are never kept. Registers are reluCSRAVX512's, with R15 compressPerm, Y0 the
// block's column indices, Y14 four in every lane and Y15 zero.
TEXT ·reluCSRAVX2(SB), NOSPLIT, $0-48
	MOVQ         val+0(FP), DI
	MOVQ         col+8(FP), SI
	MOVQ         rowPtr+16(FP), R8
	MOVQ         z+24(FP), DX
	MOVQ         rows+32(FP), R9
	MOVQ         cols+40(FP), R11
	LEAQ         ·compressPerm(SB), R15
	VXORPD       Y15, Y15, Y15
	MOVQ         $4, AX
	MOVQ         AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ         R11, AX
	ANDQ         $3, AX
	MOVQ         AX, X13
	VPBROADCASTQ X13, Y13
	VMOVDQU      iota4<>(SB), Y12
	VPCMPGTQ     Y12, Y13, Y13     // the tail's lanes: cols mod 4 > lane
	MOVQ         R11, R10
	ANDQ         $-4, R10          // columns in whole blocks
	XORQ         R12, R12
	XORQ         R13, R13

aRow:
	CMPQ    R13, R9
	JGE     aDone
	VMOVDQU iota4<>(SB), Y0
	XORQ    BX, BX

aBlock:
	CMPQ    BX, R10
	JGE     aTail
	VMOVUPD (DX)(BX*8), Y1

aCompress:
	VCMPPD    $0x1e, Y15, Y1, Y2   // GT_OQ: z > 0
	VMOVMSKPD Y2, AX
	MOVQ      AX, CX
	SHLQ      $5, CX
	VMOVDQU   (R15)(CX*1), Y3
	VPERMPS   Y1, Y3, Y4
	VPERMPS   Y0, Y3, Y5
	VMOVUPD   Y4, (DI)(R12*8)
	VMOVDQU   Y5, (SI)(R12*8)
	POPCNTL   AX, AX
	ADDQ      AX, R12
	VPADDQ    Y14, Y0, Y0
	ADDQ      $4, BX
	JMP       aBlock

aTail:
	CMPQ       BX, R11
	JGE        aRowEnd
	VMASKMOVPD (DX)(BX*8), Y13, Y1
	JMP        aCompress

aRowEnd:
	MOVQ R12, 8(R8)(R13*8)
	LEAQ (DX)(R11*8), DX
	INCQ R13
	JMP  aRow

aDone:
	VZEROUPPER
	RET

// func reluMaskCSRAVX2(val *float64, col, rowPtr *int, z, dy *float64, rows, cols int)
//
// reluMaskCSRAVX512 four lanes at a time, compressing as reluCSRAVX2 does:
// dy = dy AND !(z <= 0) (NLE_UQ), stored back (the tail under Y13), and the
// kept lanes moved to the block's front. Registers are reluCSRAVX2's, with
// R14 row i of dy.
TEXT ·reluMaskCSRAVX2(SB), NOSPLIT, $0-56
	MOVQ         val+0(FP), DI
	MOVQ         col+8(FP), SI
	MOVQ         rowPtr+16(FP), R8
	MOVQ         z+24(FP), DX
	MOVQ         dy+32(FP), R14
	MOVQ         rows+40(FP), R9
	MOVQ         cols+48(FP), R11
	LEAQ         ·compressPerm(SB), R15
	VXORPD       Y15, Y15, Y15
	MOVQ         $4, AX
	MOVQ         AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ         R11, AX
	ANDQ         $3, AX
	MOVQ         AX, X13
	VPBROADCASTQ X13, Y13
	VMOVDQU      iota4<>(SB), Y12
	VPCMPGTQ     Y12, Y13, Y13
	MOVQ         R11, R10
	ANDQ         $-4, R10
	XORQ         R12, R12
	XORQ         R13, R13

bRow:
	CMPQ    R13, R9
	JGE     bDone
	VMOVDQU iota4<>(SB), Y0
	XORQ    BX, BX

bBlock:
	CMPQ    BX, R10
	JGE     bTail
	VMOVUPD (DX)(BX*8), Y1
	VCMPPD  $0x16, Y15, Y1, Y2     // NLE_UQ: !(z <= 0)
	VANDPD  (R14)(BX*8), Y2, Y1
	VMOVUPD Y1, (R14)(BX*8)

bCompress:
	VMOVMSKPD Y2, AX
	MOVQ      AX, CX
	SHLQ      $5, CX
	VMOVDQU   (R15)(CX*1), Y3
	VPERMPS   Y1, Y3, Y4
	VPERMPS   Y0, Y3, Y5
	VMOVUPD   Y4, (DI)(R12*8)
	VMOVDQU   Y5, (SI)(R12*8)
	POPCNTL   AX, AX
	ADDQ      AX, R12
	VPADDQ    Y14, Y0, Y0
	ADDQ      $4, BX
	JMP       bBlock

bTail:
	CMPQ       BX, R11
	JGE        bRowEnd
	VMASKMOVPD (DX)(BX*8), Y13, Y1
	VCMPPD     $0x16, Y15, Y1, Y2  // +0 past the row: never kept
	VMASKMOVPD (R14)(BX*8), Y13, Y3
	VANDPD     Y3, Y2, Y1
	VMASKMOVPD Y1, Y13, (R14)(BX*8)
	JMP        bCompress

bRowEnd:
	MOVQ R12, 8(R8)(R13*8)
	LEAQ (DX)(R11*8), DX
	LEAQ (R14)(R11*8), R14
	INCQ R13
	JMP  bRow

bDone:
	VZEROUPPER
	RET

// func transposeAVX2(dst, src *float64, rows, cols int)
//
// dst = srcᵀ for a rows×cols src, both multiples of four: each 4×4 block is
// loaded as four rows, transposed in registers (VUNPCKLPD/VUNPCKHPD, then
// VPERM2F128) and stored as four rows of dst. R8 and R9 are the row strides
// in bytes of src and dst, SI src's block row, BX the block's column byte
// offset in src and DI its place in dst.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DX
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R9
	MOVQ cols+24(FP), R8
	SHLQ $3, R9
	SHLQ $3, R8
	XORQ R10, R10                 // byte offset of the block row in dst's rows

trRow:
	CMPQ R10, R9
	JGE  trDone
	XORQ BX, BX
	MOVQ DX, DI
	ADDQ R10, DI

trBlock:
	CMPQ       BX, R8
	JGE        trNext
	LEAQ       (SI)(BX*1), AX
	VMOVUPD    (AX), Y0
	ADDQ       R8, AX
	VMOVUPD    (AX), Y1
	ADDQ       R8, AX
	VMOVUPD    (AX), Y2
	ADDQ       R8, AX
	VMOVUPD    (AX), Y3
	VUNPCKLPD  Y1, Y0, Y4         // a0 b0 a2 b2
	VUNPCKHPD  Y1, Y0, Y5         // a1 b1 a3 b3
	VUNPCKLPD  Y3, Y2, Y6         // c0 d0 c2 d2
	VUNPCKHPD  Y3, Y2, Y7         // c1 d1 c3 d3
	VPERM2F128 $0x20, Y6, Y4, Y0  // a0 b0 c0 d0
	VPERM2F128 $0x20, Y7, Y5, Y1  // a1 b1 c1 d1
	VPERM2F128 $0x31, Y6, Y4, Y2  // a2 b2 c2 d2
	VPERM2F128 $0x31, Y7, Y5, Y3  // a3 b3 c3 d3
	VMOVUPD    Y0, (DI)
	ADDQ       R9, DI
	VMOVUPD    Y1, (DI)
	ADDQ       R9, DI
	VMOVUPD    Y2, (DI)
	ADDQ       R9, DI
	VMOVUPD    Y3, (DI)
	ADDQ       R9, DI
	ADDQ       $32, BX
	JMP        trBlock

trNext:
	LEAQ (SI)(R8*4), SI
	ADDQ $32, R10
	JMP  trRow

trDone:
	VZEROUPPER
	RET
