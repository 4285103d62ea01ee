//go:build amd64

#include "textflag.h"

// func band2pAVX2(o0, o1, o2, o3, bp, bq *float64, av *[8]float64, n int)
//
// For each j: o_r[j] = (o_r[j] + av[r]*bp[j]) + av[4+r]*bq[j], r=0..3.
// VMULPD/VADDPD only — FMA would fuse the two roundings the scalar code
// performs and break bitwise equality with the Go kernels.
TEXT ·band2pAVX2(SB), NOSPLIT, $0-64
	MOVQ o0+0(FP), R8
	MOVQ o1+8(FP), R9
	MOVQ o2+16(FP), R10
	MOVQ o3+24(FP), R11
	MOVQ bp+32(FP), R12
	MOVQ bq+40(FP), R13
	MOVQ av+48(FP), AX
	MOVQ n+56(FP), CX

	// Broadcast the eight band coefficients once.
	VBROADCASTSD 0(AX), Y0  // av00 (row 0, column p)
	VBROADCASTSD 8(AX), Y1  // av01 (row 1, column p)
	VBROADCASTSD 16(AX), Y2 // av02 (row 2, column p)
	VBROADCASTSD 24(AX), Y3 // av03 (row 3, column p)
	VBROADCASTSD 32(AX), Y4 // av10 (row 0, column p+1)
	VBROADCASTSD 40(AX), Y5 // av11 (row 1, column p+1)
	VBROADCASTSD 48(AX), Y6 // av12 (row 2, column p+1)
	VBROADCASTSD 56(AX), Y7 // av13 (row 3, column p+1)

	XORQ DX, DX             // j
	MOVQ CX, BX
	ANDQ $-4, BX            // vector loop end (n & ^3)

loop4:
	CMPQ DX, BX
	JGE  tail
	VMOVUPD (R12)(DX*8), Y8 // bp[j:j+4]
	VMOVUPD (R13)(DX*8), Y9 // bq[j:j+4]

	// row 0: o = (o + av00*bp) + av10*bq
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
	JGE  done
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
