#include "textflag.h"
#include "go_asm.h"

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

// The AVX-512 Adam body (elem.go's AdamUpdate), eight lanes per instruction,
// and the routine that exposes its quotient proof to the tests. Besides the
// AVX2 body's instructions it uses VFMADD231PD and VFNMADD231PD, only inside
// a quotient it then proves correctly rounded, and opmask instructions —
// all AVX512F, the one extension cpuFeatures checks. Z15 holds zero, and
// ADAM_PROOF_CONSTS loads the proof's constants into Z28–Z31.

// adamProof is |x|'s mask, the integer 1, 2⁻⁹⁰⁰ and the exponent field.
DATA adamProof<>+0(SB)/8, $0x7fffffffffffffff
DATA adamProof<>+8(SB)/8, $1
DATA adamProof<>+16(SB)/8, $0x07b0000000000000
DATA adamProof<>+24(SB)/8, $0x7ff0000000000000
GLOBL adamProof<>(SB), RODATA|NOPTR, $32

#define ADAM_PROOF_CONSTS \
	VPBROADCASTQ adamProof<>+0(SB), Z28;  \
	VPBROADCASTQ adamProof<>+8(SB), Z29;  \
	VBROADCASTSD adamProof<>+16(SB), Z30; \
	VPBROADCASTQ adamProof<>+24(SB), Z31; \
	VPXORQ       Z15, Z15, Z15

// ADAM_QUOTIENT sets q to a/b off the divider, from y = RN(1/b):
// q₀ = RN(a·y), r = RN(a − b·q₀), q = RN(q₀ + r·y). r is scratch.
#define ADAM_QUOTIENT(a, b, y, q, r) \
	VMULPD       y, a, q; \
	VMOVAPD      a, r;    \
	VFNMADD231PD q, b, r; \
	VFMADD231PD  r, y, q

// ADAM_DOMAIN sets kd to every lane when bh > 0, that is when the divisor
// lies in the proof's domain [2⁻⁶⁰, 1] (elem.go's proofScale), else to none.
#define ADAM_DOMAIN(bh, kd) \
	VCMPPD $0x1e, Z15, bh, kd

// ADAM_PROOF sets k to the lanes where q is proved to be RN(a/b), with
// bh = proofScale(b) and kd from ADAM_DOMAIN, and sets q to a where a = ±0
// in the domain. A lane is proved when a = ±0 and b is in the domain (kz),
// or when |q| > 2⁻⁹⁰⁰ and |RN(a − b·q)| < T = E·bh, E the exponent field of
// |q|'s pattern minus one, 2^⌊log₂ pred(|q|)⌋ (outside the domain bh = 0,
// and no lane passes). |q| > 2⁻⁹⁰⁰ is E ≥ 2⁻⁹⁰⁰, tested on q, whose pattern
// minus one would wrap at zero. t and u are scratch.
#define ADAM_PROOF(a, b, bh, kd, q, k, kz, t, u) \
	VPANDQ       Z28, q, t;       \
	VCMPPD       $0x1e, Z30, t, k; \
	VPSUBQ       Z29, t, t;       \
	VPANDQ       Z31, t, t;       \
	VMULPD       bh, t, t;        \
	VMOVAPD      a, u;            \
	VFNMADD231PD q, b, u;         \
	VPANDQ       Z28, u, u;       \
	VCMPPD       $0x11, t, u, k, k; \
	VCMPPD       $0x00, Z15, a, kd, kz; \
	VMOVAPD      a, kz, q;        \
	KORW         kz, k, k

// ZERO_Z16_Z31 clears the registers VZEROUPPER leaves alone.
#define ZERO_Z16_Z31 \
	VPXORQ Z16, Z16, Z16; \
	VPXORQ Z17, Z17, Z17; \
	VPXORQ Z18, Z18, Z18; \
	VPXORQ Z19, Z19, Z19; \
	VPXORQ Z20, Z20, Z20; \
	VPXORQ Z21, Z21, Z21; \
	VPXORQ Z22, Z22, Z22; \
	VPXORQ Z23, Z23, Z23; \
	VPXORQ Z24, Z24, Z24; \
	VPXORQ Z25, Z25, Z25; \
	VPXORQ Z26, Z26, Z26; \
	VPXORQ Z27, Z27, Z27; \
	VPXORQ Z28, Z28, Z28; \
	VPXORQ Z29, Z29, Z29; \
	VPXORQ Z30, Z30, Z30; \
	VPXORQ Z31, Z31, Z31

// func adamAVX512(w, m, v, grad *float64, n int, s *AdamStep)
//
// adamAVX2's sequence over eight lanes, n ≥ 1 elements: whole blocks, then
// the n mod 8 left under the opmask K7 (loaded as zero, stored masked). m/bc1
// and v/bc2 come from ADAM_QUOTIENT; a block with a lane ADAM_PROOF leaves
// unproved divides both (adamZDivide). AX is the byte offset, R11 the end of
// the whole blocks, R10 the last block's lane mask.
TEXT ·adamAVX512(SB), NOSPLIT, $0-48
	MOVQ    w+0(FP), DI
	MOVQ    m+8(FP), SI
	MOVQ    v+16(FP), DX
	MOVQ    grad+24(FP), R8
	MOVQ    n+32(FP), CX
	MOVQ    s+40(FP), R9
	MOVBLZX AdamStep_decayed(R9), BX
	VBROADCASTSD ·adamFixed+adamConsts_beta1(SB), Z16
	VBROADCASTSD ·adamFixed+adamConsts_oneMinusBeta1(SB), Z17
	VBROADCASTSD ·adamFixed+adamConsts_beta2(SB), Z18
	VBROADCASTSD ·adamFixed+adamConsts_oneMinusBeta2(SB), Z19
	VBROADCASTSD ·adamFixed+adamConsts_eps(SB), Z27
	VBROADCASTSD AdamStep_lr(R9), Z26
	VBROADCASTSD (AdamStep_bias+adamBias_bc1)(R9), Z20
	VBROADCASTSD (AdamStep_bias+adamBias_bc2)(R9), Z21
	VBROADCASTSD (AdamStep_bias+adamBias_y1)(R9), Z22
	VBROADCASTSD (AdamStep_bias+adamBias_y2)(R9), Z23
	VBROADCASTSD (AdamStep_bias+adamBias_bh1)(R9), Z24
	VBROADCASTSD (AdamStep_bias+adamBias_bh2)(R9), Z25
	ADAM_PROOF_CONSTS
	ADAM_DOMAIN(Z24, K5)
	ADAM_DOMAIN(Z25, K6)
	MOVQ    CX, R11
	ANDQ    $-8, R11
	SHLQ    $3, R11
	ANDL    $7, CX
	MOVL    $1, R10
	SHLL    CX, R10
	DECL    R10
	MOVL    $0xff, R12
	KMOVW   R12, K7
	XORQ    AX, AX

adamZBlock:
	CMPQ  AX, R11
	JLT   adamZBody
	TESTL R10, R10
	JEQ   adamZDone
	KMOVW R10, K7
	XORL  R10, R10

adamZBody:
	VMOVUPD.Z (R8)(AX*1), K7, Z0 // g
	VMOVUPD.Z (DI)(AX*1), K7, Z1 // w
	TESTQ     BX, BX
	JEQ       adamZMoments
	VMULPD    Z1, Z15, Z2        // 0·w
	VADDPD    Z2, Z0, Z0         // g + 0·w

adamZMoments:
	VMOVUPD.Z (SI)(AX*1), K7, Z2
	VMULPD    Z2, Z16, Z2        // β₁·m
	VMULPD    Z0, Z17, Z3        // (1 − β₁)·g
	VADDPD    Z3, Z2, Z2         // m
	VMOVUPD   Z2, K7, (SI)(AX*1)
	VMOVUPD.Z (DX)(AX*1), K7, Z3
	VMULPD    Z3, Z18, Z3        // β₂·v
	VMULPD    Z0, Z19, Z4        // (1 − β₂)·g
	VMULPD    Z0, Z4, Z4         // ((1 − β₂)·g)·g
	VADDPD    Z4, Z3, Z3         // v
	VMOVUPD   Z3, K7, (DX)(AX*1)
	ADAM_QUOTIENT(Z2, Z20, Z22, Z4, Z6)
	ADAM_QUOTIENT(Z3, Z21, Z23, Z5, Z7)
	ADAM_PROOF(Z2, Z20, Z24, K5, Z4, K1, K3, Z6, Z8)
	ADAM_PROOF(Z3, Z21, Z25, K6, Z5, K2, K4, Z7, Z9)
	KANDW     K2, K1, K1
	KMOVW     K1, R12
	CMPL      R12, $0xff
	JNE       adamZDivide

adamZStep:
	VMULPD  Z4, Z26, Z4          // lr·(m / bc1)
	VSQRTPD Z5, Z5               // √(v / bc2)
	VADDPD  Z27, Z5, Z5          // + ε
	VDIVPD  Z5, Z4, Z4
	VSUBPD  Z4, Z1, Z1           // w − …
	VMOVUPD Z1, K7, (DI)(AX*1)
	VMOVUPD Z15, K7, (R8)(AX*1)  // g = 0
	ADDQ    $64, AX
	JMP     adamZBlock

adamZDivide:
	VDIVPD Z20, Z2, Z4           // m / bc1
	VDIVPD Z21, Z3, Z5           // v / bc2
	JMP    adamZStep

adamZDone:
	ZERO_Z16_Z31
	VZEROUPPER
	RET

// func adamProofAVX512(a, q *[8]float64, b, bh float64) uint64
//
// ADAM_PROOF over the eight lanes at a and q, for the divisor b with
// bh = proofScale(b): it returns the proved lanes' mask and stores at q what
// adamAVX512 would keep, q or, for a proved ±0 dividend, a itself.
TEXT ·adamProofAVX512(SB), NOSPLIT, $0-40
	MOVQ         a+0(FP), SI
	MOVQ         q+8(FP), DI
	VBROADCASTSD b+16(FP), Z20
	VBROADCASTSD bh+24(FP), Z24
	ADAM_PROOF_CONSTS
	ADAM_DOMAIN(Z24, K5)
	VMOVUPD      (SI), Z2
	VMOVUPD      (DI), Z4
	ADAM_PROOF(Z2, Z20, Z24, K5, Z4, K1, K3, Z6, Z8)
	VMOVUPD      Z4, (DI)
	KMOVW        K1, AX
	MOVQ         AX, ret+32(FP)
	ZERO_Z16_Z31
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
