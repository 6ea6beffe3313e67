//go:build amd64 && !purego

#include "textflag.h"

// The pruned-cell sentinel negInf32 (dp.go): math.MinInt32 / 4.
#define NEGINF32 $0xE0000000

// LANE looks up tab[h][v] for the 16-bit index h<<8|v in the low word of
// idx and inserts the byte into lane n of X6; idx is shifted on to the
// next index.
#define LANE(idx, n) \
	MOVWLZX idx, R11             \
	SHRQ    $16, idx             \
	VPINSRB $n, (R10)(R11*1), X6, X6

// func rowLinearVec(out, d2, d1 *int32, hq, vq *byte, tab *scoring.PairTable, n int, wlast, gap, limit int32) (best, carry int32)
//
// Per vector of eight cells k..k+7:
//
//	s    = d2[k−1..k+6] + sext(tab[hq[k..]][vq[k..]])
//	s    = max(s, max(d1[k−1..k+6], d1[k..k+7]) + gap)
//	s    = s < limit ? negInf : s
//	best = max(best, s); out[k..k+7] = s
//
// In place, out trails d2 by cl−d2cl ≥ 0 cells, so the store of
// out[k..k+7] overwrites d2[k+7] — lane 0 of the next vector's diagonal
// operand — exactly when that distance is zero: the next operand is
// loaded into Y1 before the store. Lane 0 of the first operand is the
// wlast argument, because with cl = 0 the peeled top-boundary store has
// already overwritten d2[−1].
TEXT ·rowLinearVec(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ d2+8(FP), SI
	MOVQ d1+16(FP), DX
	MOVQ hq+24(FP), R8
	MOVQ vq+32(FP), R9
	MOVQ tab+40(FP), R10
	MOVQ n+48(FP), CX

	MOVL         gap+60(FP), AX
	VMOVD        AX, X8
	VPBROADCASTD X8, Y8            // Y8 = gap
	MOVL         limit+64(FP), AX
	VMOVD        AX, X9
	VPBROADCASTD X9, Y9            // Y9 = limit
	MOVL         NEGINF32, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10          // Y10 = negInf
	VMOVDQA      Y10, Y7           // Y7 = running row maximum

	VMOVDQU  -4(SI), Y0            // Y0 = d2[−1..6]
	MOVL     wlast+56(FP), AX
	VMOVD    AX, X1
	VPBLENDD $1, Y1, Y0, Y0        // lane 0 = wlast

loop:
	VMOVDQU 28(SI), Y1             // next diagonal operand, before the store

	// Eight similarity bytes, gathered into X6 and sign-extended to Y4.
	VMOVQ      (R8), X4
	VMOVQ      (R9), X5
	VPUNPCKLBW X4, X5, X4          // words h<<8 | v
	VMOVQ      X4, AX
	VPEXTRQ    $1, X4, BX
	LANE(AX, 0)
	LANE(BX, 4)
	LANE(AX, 1)
	LANE(BX, 5)
	LANE(AX, 2)
	LANE(BX, 6)
	LANE(AX, 3)
	LANE(BX, 7)
	VPMOVSXBD  X6, Y4

	VPADDD    Y4, Y0, Y0           // diagonal move
	VMOVDQU   -4(DX), Y2
	VPMAXSD   (DX), Y2, Y2
	VPADDD    Y8, Y2, Y2           // better gap move
	VPMAXSD   Y2, Y0, Y0
	VPCMPGTD  Y0, Y9, Y3           // limit > s
	VPBLENDVB Y3, Y10, Y0, Y0      // pruned lanes = negInf
	VPMAXSD   Y0, Y7, Y7
	VMOVDQU   Y0, (DI)
	VMOVDQA   Y1, Y0

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $8, R8
	ADDQ $8, R9
	SUBQ $8, CX
	JNZ  loop

	VEXTRACTI128 $1, Y7, X2
	VPMAXSD      X2, X7, X7
	VPSHUFD      $0x4E, X7, X2
	VPMAXSD      X2, X7, X7
	VPSHUFD      $0xB1, X7, X2
	VPMAXSD      X2, X7, X7
	VMOVD        X7, AX
	MOVL         AX, best+72(FP)
	VMOVD        X0, AX
	MOVL         AX, carry+76(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
