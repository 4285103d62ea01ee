//go:build amd64

#include "textflag.h"

// func bandAVX2(o, a, b *float64, rs, ps, c, k, rows int)
//
// Runs matmul's band step on rows 0..rows-1 (1–4) of out, o_r = o[r*c:],
// for each pair of steps (p, p+1) with p+1 < k:
//
//	o_r[j] = (o_r[j] + a[r*rs+p*ps]*b[p*c+j]) + a[r*rs+(p+1)*ps]*b[(p+1)*c+j]
//
// Before each pair it loads the band's 2×rows coefficients, broadcasts
// them and compares them with zero (EQ_OQ: −0 is zero and NaN is not,
// as Go's != 0 decides). A pair holding a zero runs row by row in zpair,
// each row skipping its zero steps as the scalar kernels' per-row
// skip-zero axpy does. The odd-k tail step is the caller's.
// VMULPD/VADDPD only — FMA would fuse the two roundings the scalar code
// performs and break bitwise equality with the Go kernels. A full band
// (rows == 4) runs the straight loops; a partial band runs the same
// per-row steps in the band3 loops, which test the row count after row 0
// and never touch absent rows' coefficients or outputs. The strides let
// matmul (a[i*k+p]: rs = k, ps = 1) and matmulTN (a[p*r+i]: rs = 1,
// ps = r) share the kernel.
TEXT ·bandAVX2(SB), NOSPLIT, $0-64
	MOVQ o+0(FP), R8
	MOVQ a+8(FP), AX        // &a[p*ps], p = 0
	MOVQ b+16(FP), R12      // bp = &b[p*c]
	MOVQ rs+24(FP), SI
	MOVQ ps+32(FP), DI
	MOVQ c+40(FP), CX

	SHLQ  $3, SI            // row stride of a, bytes
	SHLQ  $3, DI            // step stride of a, bytes
	LEAQ  (R12)(CX*8), R13  // bq = &b[(p+1)*c]
	LEAQ  (R8)(CX*8), R9    // out row 1
	LEAQ  (R9)(CX*8), R10   // out row 2
	MOVQ  CX, BX
	ANDQ  $-4, BX           // vector loop end (c & ^3)
	MOVQ  $1, R14           // R14 = p+1
	VXORPD X15, X15, X15    // zero, for the coefficient tests
	MOVQ  rows+56(FP), R11
	CMPQ  R11, $4
	JLT   partial
	LEAQ  (R10)(CX*8), R11  // out row 3
	LEAQ  (SI)(SI*2), R15   // three row strides

full:
	CMPQ R14, k+48(FP)
	JGE  done
	LEAQ (AX)(DI*1), DX     // &a[(p+1)*ps]

	// Broadcast the eight band coefficients and test them for zero.
	VBROADCASTSD (AX), Y0         // row 0, step p
	VBROADCASTSD (AX)(SI*1), Y1   // row 1, step p
	VBROADCASTSD (AX)(SI*2), Y2   // row 2, step p
	VBROADCASTSD (AX)(R15*1), Y3  // row 3, step p
	VBROADCASTSD (DX), Y4         // row 0, step p+1
	VBROADCASTSD (DX)(SI*1), Y5   // row 1, step p+1
	VBROADCASTSD (DX)(SI*2), Y6   // row 2, step p+1
	VBROADCASTSD (DX)(R15*1), Y7  // row 3, step p+1
	VCMPPD       $0, X15, X0, X8
	VCMPPD       $0, X15, X1, X9
	VORPD        X9, X8, X8
	VCMPPD       $0, X15, X2, X9
	VORPD        X9, X8, X8
	VCMPPD       $0, X15, X3, X9
	VORPD        X9, X8, X8
	VCMPPD       $0, X15, X4, X9
	VORPD        X9, X8, X8
	VCMPPD       $0, X15, X5, X9
	VORPD        X9, X8, X8
	VCMPPD       $0, X15, X6, X9
	VORPD        X9, X8, X8
	VCMPPD       $0, X15, X7, X9
	VORPD        X9, X8, X8
	VMOVMSKPD    X8, DX
	TESTQ        DX, DX
	JNZ          zpair      // a zero: run the pair row by row
	XORQ         DX, DX     // j

loop4:
	CMPQ DX, BX
	JGE  tail
	VMOVUPD (R12)(DX*8), Y8 // bp[j:j+4]
	VMOVUPD (R13)(DX*8), Y9 // bq[j:j+4]

	// row 0: o = (o + a00*bp) + a10*bq
	VMOVUPD (R8)(DX*8), Y10
	VMULPD  Y8, Y0, Y11
	VADDPD  Y11, Y10, Y10
	VMULPD  Y9, Y4, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y10, (R8)(DX*8)

	// row 1
	VMOVUPD (R9)(DX*8), Y10
	VMULPD  Y8, Y1, Y11
	VADDPD  Y11, Y10, Y10
	VMULPD  Y9, Y5, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y10, (R9)(DX*8)

	// row 2
	VMOVUPD (R10)(DX*8), Y10
	VMULPD  Y8, Y2, Y11
	VADDPD  Y11, Y10, Y10
	VMULPD  Y9, Y6, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y10, (R10)(DX*8)

	// row 3
	VMOVUPD (R11)(DX*8), Y10
	VMULPD  Y8, Y3, Y11
	VADDPD  Y11, Y10, Y10
	VMULPD  Y9, Y7, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y10, (R11)(DX*8)

	ADDQ $4, DX
	JMP  loop4

tail:
	CMPQ DX, CX
	JGE  fullnext
	VMOVSD (R12)(DX*8), X8
	VMOVSD (R13)(DX*8), X9

	// row 0
	VMOVSD (R8)(DX*8), X10
	VMULSD X8, X0, X11
	VADDSD X11, X10, X10
	VMULSD X9, X4, X11
	VADDSD X11, X10, X10
	VMOVSD X10, (R8)(DX*8)

	// row 1
	VMOVSD (R9)(DX*8), X10
	VMULSD X8, X1, X11
	VADDSD X11, X10, X10
	VMULSD X9, X5, X11
	VADDSD X11, X10, X10
	VMOVSD X10, (R9)(DX*8)

	// row 2
	VMOVSD (R10)(DX*8), X10
	VMULSD X8, X2, X11
	VADDSD X11, X10, X10
	VMULSD X9, X6, X11
	VADDSD X11, X10, X10
	VMOVSD X10, (R10)(DX*8)

	// row 3
	VMOVSD (R11)(DX*8), X10
	VMULSD X8, X3, X11
	VADDSD X11, X10, X10
	VMULSD X9, X7, X11
	VADDSD X11, X10, X10
	VMOVSD X10, (R11)(DX*8)

	INCQ DX
	JMP  tail

fullnext:
	ADDQ DI, AX             // next pair: a, bp and bq two steps on
	ADDQ DI, AX
	LEAQ (R13)(CX*8), R12
	LEAQ (R12)(CX*8), R13
	ADDQ $2, R14
	JMP  full

	// Partial band: R11 holds the row count; rows 1 and 2 only where
	// present.
partial:
	CMPQ R14, k+48(FP)
	JGE  done
	LEAQ (AX)(DI*1), DX

	VBROADCASTSD (AX), Y0
	VBROADCASTSD (DX), Y4
	VCMPPD       $0, X15, X0, X8
	VCMPPD       $0, X15, X4, X9
	VORPD        X9, X8, X8
	CMPQ         R11, $2
	JLT          ptest
	VBROADCASTSD (AX)(SI*1), Y1
	VBROADCASTSD (DX)(SI*1), Y5
	VCMPPD       $0, X15, X1, X9
	VORPD        X9, X8, X8
	VCMPPD       $0, X15, X5, X9
	VORPD        X9, X8, X8
	CMPQ         R11, $3
	JLT          ptest
	VBROADCASTSD (AX)(SI*2), Y2
	VBROADCASTSD (DX)(SI*2), Y6
	VCMPPD       $0, X15, X2, X9
	VORPD        X9, X8, X8
	VCMPPD       $0, X15, X6, X9
	VORPD        X9, X8, X8

ptest:
	VMOVMSKPD X8, DX
	TESTQ     DX, DX
	JNZ       zpair
	XORQ      DX, DX

band3:
	CMPQ DX, BX
	JGE  band3tail
	VMOVUPD (R12)(DX*8), Y8
	VMOVUPD (R13)(DX*8), Y9

	VMOVUPD (R8)(DX*8), Y10
	VMULPD  Y8, Y0, Y11
	VADDPD  Y11, Y10, Y10
	VMULPD  Y9, Y4, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y10, (R8)(DX*8)
	CMPQ    R11, $2
	JLT     band3next

	VMOVUPD (R9)(DX*8), Y10
	VMULPD  Y8, Y1, Y11
	VADDPD  Y11, Y10, Y10
	VMULPD  Y9, Y5, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y10, (R9)(DX*8)
	CMPQ    R11, $3
	JLT     band3next

	VMOVUPD (R10)(DX*8), Y10
	VMULPD  Y8, Y2, Y11
	VADDPD  Y11, Y10, Y10
	VMULPD  Y9, Y6, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y10, (R10)(DX*8)

band3next:
	ADDQ $4, DX
	JMP  band3

band3tail:
	CMPQ DX, CX
	JGE  partialnext
	VMOVSD (R12)(DX*8), X8
	VMOVSD (R13)(DX*8), X9

	VMOVSD (R8)(DX*8), X10
	VMULSD X8, X0, X11
	VADDSD X11, X10, X10
	VMULSD X9, X4, X11
	VADDSD X11, X10, X10
	VMOVSD X10, (R8)(DX*8)
	CMPQ   R11, $2
	JLT    band3tailnext

	VMOVSD (R9)(DX*8), X10
	VMULSD X8, X1, X11
	VADDSD X11, X10, X10
	VMULSD X9, X5, X11
	VADDSD X11, X10, X10
	VMOVSD X10, (R9)(DX*8)
	CMPQ   R11, $3
	JLT    band3tailnext

	VMOVSD (R10)(DX*8), X10
	VMULSD X8, X2, X11
	VADDSD X11, X10, X10
	VMULSD X9, X6, X11
	VADDSD X11, X10, X10
	VMOVSD X10, (R10)(DX*8)

band3tailnext:
	INCQ DX
	JMP  band3tail

partialnext:
	ADDQ DI, AX
	ADDQ DI, AX
	LEAQ (R13)(CX*8), R12
	LEAQ (R12)(CX*8), R13
	ADDQ $2, R14
	JMP  partial

	// A pair holding a zero, row by row: a row whose two coefficients
	// are nonzero runs both steps in one pass, a row with one runs it as
	// an axpy, a row with none is left as it is.
zpair:
	MOVQ R8, R9             // out row r
	MOVQ AX, R10            // &a[r*rs+p*ps]
	MOVQ rows+56(FP), R11   // rows left

zrow:
	VBROADCASTSD (R10), Y12       // row r, step p
	VBROADCASTSD (R10)(DI*1), Y13 // row r, step p+1
	VCMPPD       $0, X15, X12, X8
	VMOVMSKPD    X8, DX
	VCMPPD       $0, X15, X13, X9
	VMOVMSKPD    X9, R15
	TESTQ        DX, DX
	JNZ          zskip0     // step p is skipped
	TESTQ        R15, R15
	JNZ          zonly0     // step p+1 is skipped
	XORQ         DX, DX

z2:
	CMPQ    DX, BX
	JGE     z2tail
	VMOVUPD (R9)(DX*8), Y10
	VMULPD  (R12)(DX*8), Y12, Y11
	VADDPD  Y11, Y10, Y10
	VMULPD  (R13)(DX*8), Y13, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y10, (R9)(DX*8)
	ADDQ    $4, DX
	JMP     z2

z2tail:
	CMPQ   DX, CX
	JGE    znext
	VMOVSD (R9)(DX*8), X10
	VMULSD (R12)(DX*8), X12, X11
	VADDSD X11, X10, X10
	VMULSD (R13)(DX*8), X13, X11
	VADDSD X11, X10, X10
	VMOVSD X10, (R9)(DX*8)
	INCQ   DX
	JMP    z2tail

zskip0:
	TESTQ   R15, R15
	JNZ     znext           // both steps skipped
	VMOVAPD Y13, Y12        // step p+1 alone
	MOVQ    R13, R15
	JMP     z1

zonly0:
	MOVQ R12, R15           // step p alone

	// One step: o_r[j] += Y12 * R15[j].
z1:
	XORQ DX, DX

z1loop:
	CMPQ    DX, BX
	JGE     z1tail
	VMOVUPD (R9)(DX*8), Y10
	VMULPD  (R15)(DX*8), Y12, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y10, (R9)(DX*8)
	ADDQ    $4, DX
	JMP     z1loop

z1tail:
	CMPQ   DX, CX
	JGE    znext
	VMOVSD (R9)(DX*8), X10
	VMULSD (R15)(DX*8), X12, X11
	VADDSD X11, X10, X10
	VMOVSD X10, (R9)(DX*8)
	INCQ   DX
	JMP    z1tail

znext:
	LEAQ (R9)(CX*8), R9
	ADDQ SI, R10
	DECQ R11
	JNZ  zrow

	// Restore the band's row registers and go on with the next pair.
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	MOVQ rows+56(FP), R11
	CMPQ R11, $4
	JLT  partialnext
	LEAQ (R10)(CX*8), R11
	LEAQ (SI)(SI*2), R15
	JMP  fullnext

done:
	VZEROUPPER
	RET

// func axpyAVX2(o, b *float64, s float64, n int)
//
// o[j] += s*b[j]; one multiply then one add per element, matching the
// scalar axpy's rounding exactly.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), R8
	MOVQ b+8(FP), R9
	MOVQ n+24(FP), CX
	VBROADCASTSD s+16(FP), Y0

	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-8, BX            // 2x-unrolled vector loop end (n & ^7)

loop8:
	CMPQ DX, BX
	JGE  loop4
	VMOVUPD (R9)(DX*8), Y1
	VMULPD  Y1, Y0, Y1
	VMOVUPD (R8)(DX*8), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (R8)(DX*8)
	VMOVUPD 32(R9)(DX*8), Y3
	VMULPD  Y3, Y0, Y3
	VMOVUPD 32(R8)(DX*8), Y4
	VADDPD  Y3, Y4, Y4
	VMOVUPD Y4, 32(R8)(DX*8)
	ADDQ    $8, DX
	JMP     loop8

loop4:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ DX, BX
	JGE  tail
	VMOVUPD (R9)(DX*8), Y1
	VMULPD  Y1, Y0, Y1
	VMOVUPD (R8)(DX*8), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (R8)(DX*8)
	ADDQ    $4, DX

tail:
	CMPQ DX, CX
	JGE  done
	VMOVSD (R9)(DX*8), X1
	VMULSD X1, X0, X1
	VMOVSD (R8)(DX*8), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (R8)(DX*8)
	INCQ   DX
	JMP    tail

done:
	VZEROUPPER
	RET

// func ntPanelAVX2(s *[16]float64, a0, a1, a2, a3, panel *float64, k int)
//
// s[4*r+jj] = sum_p a_r[p] * panel[4p+jj], accumulated in ascending-p
// order with separate VMULPD/VADDPD: each lane of Y0..Y3 is one output
// element's single accumulator chain, exactly the Go panel loop's
// s += av*v sequence, so the bitwise contract holds. One VMOVUPD streams
// the packed panel column group; the four a coefficients broadcast.
TEXT ·ntPanelAVX2(SB), NOSPLIT, $0-56
	MOVQ s+0(FP), DI
	MOVQ a0+8(FP), R8
	MOVQ a1+16(FP), R9
	MOVQ a2+24(FP), R10
	MOVQ a3+32(FP), R11
	MOVQ panel+40(FP), R12
	MOVQ k+48(FP), CX

	VXORPD Y0, Y0, Y0       // s row 0, columns j..j+3
	VXORPD Y1, Y1, Y1       // s row 1
	VXORPD Y2, Y2, Y2       // s row 2
	VXORPD Y3, Y3, Y3       // s row 3

	XORQ DX, DX             // p

ntloop:
	CMPQ DX, CX
	JGE  ntdone
	VMOVUPD      (R12), Y4  // panel[4p : 4p+4]
	VBROADCASTSD (R8)(DX*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	VBROADCASTSD (R9)(DX*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y1, Y1
	VBROADCASTSD (R10)(DX*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y2, Y2
	VBROADCASTSD (R11)(DX*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y3, Y3
	ADDQ         $32, R12
	INCQ         DX
	JMP          ntloop

ntdone:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// Single-precision inference kernels: the float32 tier, 8 lanes per
// vector with VFMADD231 (one rounding per multiply-add, unlike
// everything above). Reachable only from f32 forward tapes. NOT
// bitwise-pinned to the pure-Go mirrors (which fuse through float64 and
// can double-round on ties); TestF32KernelsULPBound holds the two paths
// together instead.
// ---------------------------------------------------------------------

// func band2pFMA32(o0, o1, o2, o3, bp, bq *float32, av *[8]float32, n int)
//
// o_r[j] = fma(av[4+r], bq[j], fma(av[r], bp[j], o_r[j])), r=0..3.
TEXT ·band2pFMA32(SB), NOSPLIT, $0-64
	MOVQ o0+0(FP), R8
	MOVQ o1+8(FP), R9
	MOVQ o2+16(FP), R10
	MOVQ o3+24(FP), R11
	MOVQ bp+32(FP), R12
	MOVQ bq+40(FP), R13
	MOVQ av+48(FP), AX
	MOVQ n+56(FP), CX

	VBROADCASTSS 0(AX), Y0  // av00 (row 0, column p)
	VBROADCASTSS 4(AX), Y1  // av01 (row 1, column p)
	VBROADCASTSS 8(AX), Y2  // av02 (row 2, column p)
	VBROADCASTSS 12(AX), Y3 // av03 (row 3, column p)
	VBROADCASTSS 16(AX), Y4 // av10 (row 0, column p+1)
	VBROADCASTSS 20(AX), Y5 // av11 (row 1, column p+1)
	VBROADCASTSS 24(AX), Y6 // av12 (row 2, column p+1)
	VBROADCASTSS 28(AX), Y7 // av13 (row 3, column p+1)

	XORQ DX, DX             // j
	MOVQ CX, BX
	ANDQ $-8, BX            // vector loop end (n & ^7)

sloop8:
	CMPQ DX, BX
	JGE  stail
	VMOVUPS (R12)(DX*4), Y8 // bp[j:j+8]
	VMOVUPS (R13)(DX*4), Y9 // bq[j:j+8]

	// row 0: o = fma(av10, bq, fma(av00, bp, o))
	VMOVUPS     (R8)(DX*4), Y10
	VFMADD231PS Y8, Y0, Y10
	VFMADD231PS Y9, Y4, Y10
	VMOVUPS     Y10, (R8)(DX*4)

	// row 1
	VMOVUPS     (R9)(DX*4), Y10
	VFMADD231PS Y8, Y1, Y10
	VFMADD231PS Y9, Y5, Y10
	VMOVUPS     Y10, (R9)(DX*4)

	// row 2
	VMOVUPS     (R10)(DX*4), Y10
	VFMADD231PS Y8, Y2, Y10
	VFMADD231PS Y9, Y6, Y10
	VMOVUPS     Y10, (R10)(DX*4)

	// row 3
	VMOVUPS     (R11)(DX*4), Y10
	VFMADD231PS Y8, Y3, Y10
	VFMADD231PS Y9, Y7, Y10
	VMOVUPS     Y10, (R11)(DX*4)

	ADDQ $8, DX
	JMP  sloop8

stail:
	CMPQ DX, CX
	JGE  sdone
	VMOVSS (R12)(DX*4), X8
	VMOVSS (R13)(DX*4), X9

	// row 0
	VMOVSS      (R8)(DX*4), X10
	VFMADD231SS X8, X0, X10
	VFMADD231SS X9, X4, X10
	VMOVSS      X10, (R8)(DX*4)

	// row 1
	VMOVSS      (R9)(DX*4), X10
	VFMADD231SS X8, X1, X10
	VFMADD231SS X9, X5, X10
	VMOVSS      X10, (R9)(DX*4)

	// row 2
	VMOVSS      (R10)(DX*4), X10
	VFMADD231SS X8, X2, X10
	VFMADD231SS X9, X6, X10
	VMOVSS      X10, (R10)(DX*4)

	// row 3
	VMOVSS      (R11)(DX*4), X10
	VFMADD231SS X8, X3, X10
	VFMADD231SS X9, X7, X10
	VMOVSS      X10, (R11)(DX*4)

	INCQ DX
	JMP  stail

sdone:
	VZEROUPPER
	RET

// func axpyFMA32(o, b *float32, s float32, n int)
//
// o[j] = fma(s, b[j], o[j]).
TEXT ·axpyFMA32(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), R8
	MOVQ b+8(FP), R9
	MOVQ n+24(FP), CX
	VBROADCASTSS s+16(FP), Y0

	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-16, BX           // 2x-unrolled vector loop end (n & ^15)

saloop16:
	CMPQ DX, BX
	JGE  saloop8
	VMOVUPS     (R9)(DX*4), Y1
	VMOVUPS     (R8)(DX*4), Y2
	VFMADD231PS Y1, Y0, Y2
	VMOVUPS     Y2, (R8)(DX*4)
	VMOVUPS     32(R9)(DX*4), Y3
	VMOVUPS     32(R8)(DX*4), Y4
	VFMADD231PS Y3, Y0, Y4
	VMOVUPS     Y4, 32(R8)(DX*4)
	ADDQ        $16, DX
	JMP         saloop16

saloop8:
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ DX, BX
	JGE  satail
	VMOVUPS     (R9)(DX*4), Y1
	VMOVUPS     (R8)(DX*4), Y2
	VFMADD231PS Y1, Y0, Y2
	VMOVUPS     Y2, (R8)(DX*4)
	ADDQ        $8, DX

satail:
	CMPQ DX, CX
	JGE  sadone
	VMOVSS      (R9)(DX*4), X1
	VMOVSS      (R8)(DX*4), X2
	VFMADD231SS X1, X0, X2
	VMOVSS      X2, (R8)(DX*4)
	INCQ        DX
	JMP         satail

sadone:
	VZEROUPPER
	RET

// func dotFMA32(a, b *float32, n int) float32
//
// Striped fused float32 dot product: sixteen accumulator lanes (two Y
// registers) walk the vectors in steps of 16, reduced lane-pairwise
// (acc[l]+acc[l+8] per lane, cross-half add, then two horizontal adds),
// and the scalar n%16 tail accumulates on its own fused chain added
// last. dot32 in kernels_f32.go mirrors this order.
TEXT ·dotFMA32(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), R9
	MOVQ n+16(FP), CX

	VXORPS Y0, Y0, Y0       // acc[0..7]
	VXORPS Y1, Y1, Y1       // acc[8..15]
	VXORPS X5, X5, X5       // scalar tail accumulator

	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-16, BX           // vector loop end (n & ^15)

sdloop16:
	CMPQ DX, BX
	JGE  sdtail
	VMOVUPS     (R8)(DX*4), Y2
	VMOVUPS     (R9)(DX*4), Y3
	VFMADD231PS Y3, Y2, Y0
	VMOVUPS     32(R8)(DX*4), Y2
	VMOVUPS     32(R9)(DX*4), Y3
	VFMADD231PS Y3, Y2, Y1
	ADDQ        $16, DX
	JMP         sdloop16

sdtail:
	CMPQ DX, CX
	JGE  sdreduce
	VMOVSS      (R8)(DX*4), X2
	VMOVSS      (R9)(DX*4), X3
	VFMADD231SS X3, X2, X5
	INCQ        DX
	JMP         sdtail

sdreduce:
	VADDPS       Y1, Y0, Y0 // lane l: acc[l] + acc[l+8]
	VEXTRACTF128 $1, Y0, X1 // upper half (lanes 4..7)
	VADDPS       X1, X0, X0 // s_l = (acc[l]+acc[l+8]) + (acc[l+4]+acc[l+12])
	VHADDPS      X0, X0, X0 // (s0+s1, s2+s3, ...)
	VHADDPS      X0, X0, X0 // (s0+s1)+(s2+s3)
	VADDSS       X5, X0, X0 // + tail chain
	VMOVSS       X0, ret+24(FP)
	VZEROUPPER
	RET

// func vexpFMA32(o, x, consts *float32, n int)
//
// 8-lane exp under expf32's contract; n is a multiple of 8. consts
// points at expConsts32: 14 pre-broadcast 8-lane rows at 32-byte
// offsets — 0 maxIn, 32 minIn, 64 log2e, 96 ln2hi, 128 ln2lo,
// 160..320 poly c0..c5, 352 one, 384 exponent bias (dwords), 416 +Inf.
// The input clamps into [minIn, maxIn] for the reduction (so the
// int32 conversion cannot overflow); overflow, underflow and NaN lanes
// are repaired afterwards by masks compared against the original input,
// which reproduces the scalar's edge behavior exactly.
TEXT ·vexpFMA32(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), R8
	MOVQ x+8(FP), R9
	MOVQ consts+16(FP), R14
	MOVQ n+24(FP), CX

	XORQ DX, DX

veloop:
	CMPQ DX, CX
	JGE  vedone
	VMOVUPS (R9)(DX*4), Y0          // x

	// Reduction: n = rne(xc * log2e), r = xc - n*ln2hi - n*ln2lo.
	VMAXPS       32(R14), Y0, Y1    // xc = max(x, minIn)
	VMINPS       (R14), Y1, Y1     // xc = min(xc, maxIn)
	VMULPS       64(R14), Y1, Y2
	VCVTPS2DQ    Y2, Y6             // ni, rounded to nearest even
	VCVTDQ2PS    Y6, Y2             // nf
	VMOVAPS      Y1, Y3
	VFNMADD231PS 96(R14), Y2, Y3    // r = xc - nf*ln2hi
	VFNMADD231PS 128(R14), Y2, Y3   // r -= nf*ln2lo

	// Degree-5 polynomial, fused Horner steps: p = r*p + c_k.
	VMOVUPS     160(R14), Y4        // c0
	VFMADD213PS 192(R14), Y3, Y4
	VFMADD213PS 224(R14), Y3, Y4
	VFMADD213PS 256(R14), Y3, Y4
	VFMADD213PS 288(R14), Y3, Y4
	VFMADD213PS 320(R14), Y3, Y4

	// y = p*r*r + r + 1.
	VMULPS      Y3, Y3, Y5
	VFMADD213PS Y3, Y5, Y4
	VADDPS      352(R14), Y4, Y4

	// Scale by 2^n in two half-factors (n1 = n>>1, n2 = n-n1), so
	// n=128 near the overflow edge stays finite — same trick as the
	// scalar.
	VPSRAD $1, Y6, Y7
	VPSUBD Y7, Y6, Y6
	VPADDD 384(R14), Y7, Y7
	VPSLLD $23, Y7, Y7
	VPADDD 384(R14), Y6, Y6
	VPSLLD $23, Y6, Y6
	VMULPS Y7, Y4, Y4
	VMULPS Y6, Y4, Y4

	// Edge repair against the original input: x > maxIn -> +Inf,
	// x < minIn -> 0, NaN -> x. The compares are false on NaN, so the
	// unordered blend last wins.
	VCMPPS    $6, (R14), Y0, Y1     // NLE: x > maxIn
	VMOVUPS   416(R14), Y2
	VBLENDVPS Y1, Y2, Y4, Y4
	VCMPPS    $1, 32(R14), Y0, Y1   // LT: x < minIn
	VXORPS    Y2, Y2, Y2
	VBLENDVPS Y1, Y2, Y4, Y4
	VCMPPS    $3, Y0, Y0, Y1        // UNORD: NaN lanes
	VBLENDVPS Y1, Y0, Y4, Y4

	VMOVUPS Y4, (R8)(DX*4)
	ADDQ    $8, DX
	JMP     veloop

vedone:
	VZEROUPPER
	RET

// func vaddFMA32(o, a, b *float32, n int)
//
// o[j] = a[j] + b[j]: plain VADDPS, bitwise-identical to the scalar
// loop (single rounding per element on both paths).
TEXT ·vaddFMA32(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), R8
	MOVQ a+8(FP), R9
	MOVQ b+16(FP), R10
	MOVQ n+24(FP), CX

	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-16, BX           // 2x-unrolled vector loop end (n & ^15)

valoop16:
	CMPQ DX, BX
	JGE  valoop8
	VMOVUPS (R9)(DX*4), Y0
	VADDPS  (R10)(DX*4), Y0, Y0
	VMOVUPS Y0, (R8)(DX*4)
	VMOVUPS 32(R9)(DX*4), Y1
	VADDPS  32(R10)(DX*4), Y1, Y1
	VMOVUPS Y1, 32(R8)(DX*4)
	ADDQ    $16, DX
	JMP     valoop16

valoop8:
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ DX, BX
	JGE  vatail
	VMOVUPS (R9)(DX*4), Y0
	VADDPS  (R10)(DX*4), Y0, Y0
	VMOVUPS Y0, (R8)(DX*4)
	ADDQ    $8, DX

vatail:
	CMPQ DX, CX
	JGE  vadone
	VMOVSS (R9)(DX*4), X0
	VADDSS (R10)(DX*4), X0, X0
	VMOVSS X0, (R8)(DX*4)
	INCQ   DX
	JMP    vatail

vadone:
	VZEROUPPER
	RET

// VEXPFMA(x, t, p, nx, ny) replaces each lane of x with math.Exp(x),
// bit for bit, for lanes inside [-708, 709]: a 4-lane port of the FMA
// path of math.Exp (Go's math/exp_amd64.s). t, p and ny are scratch Y
// registers, nx is ny's X half. R14 points at expConsts: 0 lo, 32 hi,
// 64 log2e, 96 ln2u, 128 ln2l, 160 1/16, 192..384 the Taylor
// coefficients 1/8! .. 1/2!, 416 one, 448 two, 480 the exponent bias
// (qwords).
//
// n = rne(x*log2e), rounded per MXCSR like CVTSD2SL; r = (x - n*ln2u -
// n*ln2l) / 16, fused as in the scalar's VFNMADD231SD steps; the Taylor
// series p = p*r + c from 1/8! down to one; y = r*p = e^r - 1, squared
// back up four times as y = y*(y+2), the last one fused with the final
// +1; then y * 2^n, with 2^n built from its exponent field. Inside
// [lo, hi] the exponent n+1023 lies in [1, 2046], so the scalar's ldexp
// reduces to that one multiply. vexpFMA and lstmCellAVX2 both expand
// this one macro, so TestExpvMatchesMathExp pins every exponential the
// kernels take.
#define VEXPFMA(x, t, p, nx, ny) \
	VMULPD       64(R14), x, t; \
	VCVTPD2DQY   t, nx; \
	VCVTDQ2PD    nx, t; \
	VFNMADD231PD 96(R14), t, x; \
	VFNMADD231PD 128(R14), t, x; \
	VMULPD       160(R14), x, x; \
	VMOVUPD      192(R14), p; \
	VFMADD213PD  224(R14), x, p; \
	VFMADD213PD  256(R14), x, p; \
	VFMADD213PD  288(R14), x, p; \
	VFMADD213PD  320(R14), x, p; \
	VFMADD213PD  352(R14), x, p; \
	VFMADD213PD  384(R14), x, p; \
	VFMADD213PD  416(R14), x, p; \
	VMULPD       p, x, x; \
	VADDPD       448(R14), x, p; \
	VMULPD       p, x, x; \
	VADDPD       448(R14), x, p; \
	VMULPD       p, x, x; \
	VADDPD       448(R14), x, p; \
	VMULPD       p, x, x; \
	VADDPD       448(R14), x, p; \
	VFMADD213PD  416(R14), p, x; \
	VPMOVSXDQ    nx, ny; \
	VPADDQ       480(R14), ny, ny; \
	VPSLLQ       $52, ny, ny; \
	VMULPD       ny, x, x

// func vexpFMA(o, x *float64, n int, consts *[104]float64) int
//
// o[i] = math.Exp(x[i]) through VEXPFMA, four lanes at a time, so every
// lane is bitwise equal to math.Exp on hosts where math.Exp takes its
// FMA path; n is a multiple of 4. Only the scalar's finite,
// normal-result path is ported: a chunk with a lane outside [lo, hi] or
// NaN (the ordered compares fail) is left unwritten and the kernel
// returns its offset for the caller to finish with math.Exp.
TEXT ·vexpFMA(SB), NOSPLIT, $0-40
	MOVQ o+0(FP), R8
	MOVQ x+8(FP), R9
	MOVQ n+16(FP), CX
	MOVQ consts+24(FP), R14

	XORQ DX, DX

vdloop:
	CMPQ DX, CX
	JGE  vddone
	VMOVUPD (R9)(DX*8), Y0          // x

	VCMPPD    $13, (R14), Y0, Y1    // GE_OS: x >= lo
	VCMPPD    $2, 32(R14), Y0, Y2   // LE_OS: x <= hi
	VANDPD    Y1, Y2, Y2
	VMOVMSKPD Y2, AX
	CMPQ      AX, $15
	JNE       vddone

	VEXPFMA(Y0, Y1, Y2, X6, Y6)

	VMOVUPD Y0, (R8)(DX*8)
	ADDQ    $4, DX
	JMP     vdloop

vddone:
	MOVQ DX, ret+32(FP)
	VZEROUPPER
	RET

// TANHEXP(x, e, t1, t2, t3) replaces each lane of e with tanhExp(x, e):
// x holds the arguments and is kept, e holds exp(2|x|) wherever 0.625
// <= |x| <= 44.01 and anything finite elsewhere. A lane takes one of
// tanhExp's regimes, picked by masks in its order of precedence: the
// Cephes rational form x + (x*s)*P(s)/Q(s) with s = x*x; 1 - 2/(e+1)
// with x's sign where |x| >= 0.625; x itself where x == 0 (so ±0 keeps
// its sign); ±1 where |x| > 44.01. The two forms' quotients share one
// VDIVPD, its numerator and denominator chosen per lane. A NaN fails
// every compare and takes the rational form, which carries x's NaN as
// the scalar does. Each value is rounded where the scalar rounds: no
// FMA. t1-t3 are scratch; reads one from Y15 and expConsts at R14 (448
// two, 512 |x| mask, 544 sign mask, 576 0.625, 608 44.01, 640..704 P,
// 736..800 Q).
#define TANHEXP(x, e, t1, t2, t3) \
	VMULPD    x, x, t1; \
	VMULPD    640(R14), t1, t2; \
	VADDPD    672(R14), t2, t2; \
	VMULPD    t1, t2, t2; \
	VADDPD    704(R14), t2, t2; \
	VADDPD    736(R14), t1, t3; \
	VMULPD    t1, t3, t3; \
	VADDPD    768(R14), t3, t3; \
	VMULPD    t1, t3, t3; \
	VADDPD    800(R14), t3, t3; \
	VMULPD    x, t1, t1; \
	VMULPD    t2, t1, t1; \
	VADDPD    Y15, e, e; \
	VANDPD    512(R14), x, t2; \
	VCMPPD    $13, 576(R14), t2, t2; \
	VBLENDVPD t2, e, t3, t3; \
	VMOVUPD   448(R14), e; \
	VBLENDVPD t2, e, t1, t1; \
	VDIVPD    t3, t1, t1; \
	VSUBPD    t1, Y15, e; \
	VANDPD    544(R14), x, t3; \
	VXORPD    t3, e, e; \
	VADDPD    x, t1, t1; \
	VBLENDVPD t2, e, t1, t1; \
	VXORPD    t2, t2, t2; \
	VCMPPD    $0, t2, x, t2; \
	VBLENDVPD t2, x, t1, t1; \
	VORPD     Y15, t3, t3; \
	VANDPD    512(R14), x, t2; \
	VCMPPD    $14, 608(R14), t2, t2; \
	VBLENDVPD t2, t3, t1, e

// The cell kernel's steps for one 4-unit chunk at byte offset off of
// the row pointers (SI x, DI w, R8 b, R11 cp, R12 c, R13 h; gate
// strides R9 and R10 = 3*R9). Each step runs on one chunk's registers,
// so the loop can interleave two chunks' independent chains.
//
// CELLARGS: i, f, o = -((x + w) + b) of their gates, the sigmoids' exp
// arguments; g = z_g, kept for tanh; e = 2|z_g| clamped to 709 (NaN
// too, by VMINPD's operand order): tanhExp reads its exp only when
// 2|x| <= 88.03, so a clamped value is never used.
#define CELLARGS(off, i, f, o, g, e) \
	VMOVUPD off(SI), i; \
	VADDPD  off(DI), i, i; \
	VADDPD  off(R8), i, i; \
	VXORPD  544(R14), i, i; \
	VMOVUPD off(SI)(R9*1), f; \
	VADDPD  off(DI)(R9*1), f, f; \
	VADDPD  off(R8)(R9*1), f, f; \
	VXORPD  544(R14), f, f; \
	VMOVUPD off(SI)(R10*1), o; \
	VADDPD  off(DI)(R10*1), o, o; \
	VADDPD  off(R8)(R10*1), o, o; \
	VXORPD  544(R14), o, o; \
	VMOVUPD off(SI)(R9*2), g; \
	VADDPD  off(DI)(R9*2), g, g; \
	VADDPD  off(R8)(R9*2), g, g; \
	VANDPD  512(R14), g, e; \
	VADDPD  e, e, e; \
	VMINPD  32(R14), e, e

// CELLRANGE ands into m the lanes whose three sigmoid arguments lie in
// [-708, 709] (GE_OS and LE_OS fail on NaN); t is scratch.
#define CELLRANGE(i, f, o, m, t) \
	VCMPPD $13, (R14), i, t; \
	VANDPD t, m, m; \
	VCMPPD $2, 32(R14), i, t; \
	VANDPD t, m, m; \
	VCMPPD $13, (R14), f, t; \
	VANDPD t, m, m; \
	VCMPPD $2, 32(R14), f, t; \
	VANDPD t, m, m; \
	VCMPPD $13, (R14), o, t; \
	VANDPD t, m, m; \
	VCMPPD $2, 32(R14), o, t; \
	VANDPD t, m, m

// SIGMOID turns exp(-z) into σ(z) = 1/(1+exp(-z)).
#define SIGMOID(e) \
	VADDPD Y15, e, e; \
	VDIVPD e, Y15, e

// CELLSTATE forms c = σ(f)*cp + σ(i)*g, each product rounded, stores
// it, and leaves 2|c| clamped to 709 in e for tanh(c).
#define CELLSTATE(off, i, f, g, e) \
	VMULPD  off(R11), f, f; \
	VMULPD  g, i, i; \
	VADDPD  i, f, f; \
	VMOVUPD f, off(R12); \
	VANDPD  512(R14), f, e; \
	VADDPD  e, e, e; \
	VMINPD  32(R14), e, e

// func lstmCellAVX2(h, c, x, w, b, cp *float64, n, H int, consts *[104]float64) bool
//
// One live row of lstmCellFused over hidden units 0..n-1 (n a multiple
// of 4, n <= H), four units per vector: x, w and b are the row's [4H]
// gate pre-activations (blocks i, f, g, o at strides of H), cp its
// previous cell. Per unit, exactly the scalar's operations:
//
//	z_q = (x_q + w_q) + b_q
//	σ(z_q) = 1/(1 + exp(-z_q))              q = i, f, o
//	g = tanhExp(z_g, exp(2|z_g|))
//	c = σ(z_f)*cp + σ(z_i)*g                two products, then the sum
//	h = σ(z_o) * tanhExp(c, exp(2|c|))
//
// with VDIVPD for every quotient (IEEE division is correctly rounded,
// like DIVSD) and separate VMULPD/VADDPD everywhere outside the shared
// exp macro. A unit's chain runs through two exponentials, two tanh
// forms and three divisions back to back, so the main loop interleaves
// two chunks (8 units) to keep two chains in flight; a last odd chunk
// runs alone. It returns false, possibly after writing part of h and
// c, at the first step whose sigmoid exp arguments leave [-708, 709]
// or are NaN; it reads only x, w, b and cp, so the caller recomputes
// that row in Go.
TEXT ·lstmCellAVX2(SB), NOSPLIT, $0-73
	MOVQ h+0(FP), R13
	MOVQ c+8(FP), R12
	MOVQ x+16(FP), SI
	MOVQ w+24(FP), DI
	MOVQ b+32(FP), R8
	MOVQ cp+40(FP), R11
	MOVQ n+48(FP), CX
	MOVQ H+56(FP), R9
	MOVQ consts+64(FP), R14

	SHLQ    $3, R9                  // gate block stride in bytes
	LEAQ    (R9)(R9*2), R10         // 3 strides: the o block
	VMOVUPD 416(R14), Y15           // one

	// Chunks A (Y0-Y4: i, f, o, g, e) and B (Y5-Y9); Y10-Y13 scratch.
cellloop8:
	CMPQ CX, $8
	JLT  cellloop4

	CELLARGS(0, Y0, Y1, Y2, Y3, Y4)
	CELLARGS(32, Y5, Y6, Y7, Y8, Y9)
	VPCMPEQQ  Y13, Y13, Y13
	CELLRANGE(Y0, Y1, Y2, Y13, Y10)
	CELLRANGE(Y5, Y6, Y7, Y13, Y10)
	VMOVMSKPD Y13, AX
	CMPQ      AX, $15
	JNE       celldecline

	VEXPFMA(Y0, Y10, Y11, X12, Y12)
	VEXPFMA(Y5, Y10, Y11, X12, Y12)
	VEXPFMA(Y1, Y10, Y11, X12, Y12)
	VEXPFMA(Y6, Y10, Y11, X12, Y12)
	VEXPFMA(Y2, Y10, Y11, X12, Y12)
	VEXPFMA(Y7, Y10, Y11, X12, Y12)
	VEXPFMA(Y4, Y10, Y11, X12, Y12)
	VEXPFMA(Y9, Y10, Y11, X12, Y12)
	SIGMOID(Y0)
	SIGMOID(Y5)
	SIGMOID(Y1)
	SIGMOID(Y6)
	SIGMOID(Y2)
	SIGMOID(Y7)
	TANHEXP(Y3, Y4, Y10, Y11, Y12)  // g
	TANHEXP(Y8, Y9, Y10, Y11, Y12)
	CELLSTATE(0, Y0, Y1, Y4, Y3)
	CELLSTATE(32, Y5, Y6, Y9, Y8)
	VEXPFMA(Y3, Y10, Y11, X12, Y12)
	VEXPFMA(Y8, Y10, Y11, X12, Y12)
	TANHEXP(Y1, Y3, Y10, Y11, Y12)  // tanh(c)
	TANHEXP(Y6, Y8, Y10, Y11, Y12)
	VMULPD  Y3, Y2, Y2              // h = σ(o) * tanh(c)
	VMOVUPD Y2, (R13)
	VMULPD  Y8, Y7, Y7
	VMOVUPD Y7, 32(R13)

	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ $64, R11
	ADDQ $64, R12
	ADDQ $64, R13
	SUBQ $8, CX
	JMP  cellloop8

cellloop4:
	CMPQ CX, $0
	JLE  cellok

	CELLARGS(0, Y0, Y1, Y2, Y3, Y4)
	VPCMPEQQ  Y13, Y13, Y13
	CELLRANGE(Y0, Y1, Y2, Y13, Y10)
	VMOVMSKPD Y13, AX
	CMPQ      AX, $15
	JNE       celldecline

	VEXPFMA(Y0, Y10, Y11, X12, Y12)
	VEXPFMA(Y1, Y10, Y11, X12, Y12)
	VEXPFMA(Y2, Y10, Y11, X12, Y12)
	VEXPFMA(Y4, Y10, Y11, X12, Y12)
	SIGMOID(Y0)
	SIGMOID(Y1)
	SIGMOID(Y2)
	TANHEXP(Y3, Y4, Y10, Y11, Y12)
	CELLSTATE(0, Y0, Y1, Y4, Y3)
	VEXPFMA(Y3, Y10, Y11, X12, Y12)
	TANHEXP(Y1, Y3, Y10, Y11, Y12)
	VMULPD  Y3, Y2, Y2
	VMOVUPD Y2, (R13)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	SUBQ $4, CX
	JMP  cellloop4

cellok:
	MOVB $1, ret+72(FP)
	VZEROUPPER
	RET

celldecline:
	MOVB $0, ret+72(FP)
	VZEROUPPER
	RET
