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

// The two row bodies share prologue, per-vector arithmetic and epilogue
// as macros, so the recurrence is written once. ROW_ENTER loads the
// arguments both take at the same offsets — DI out, SI d2, DX d1, R8 hq,
// R9 vq, R10 tab, CX cells left, Y8 gap, Y9 limit, Y10 negInf, Y7 the
// running row maximum — and the first diagonal operand d2[−1..6] into Y0.
// Its lane 0 is the wlast argument: in place, with cl = 0, the peeled
// top-boundary store has already overwritten d2[−1].
#define ROW_ENTER \
	MOVQ         out+0(FP), DI   \
	MOVQ         d2+8(FP), SI    \
	MOVQ         d1+16(FP), DX   \
	MOVQ         hq+24(FP), R8   \
	MOVQ         vq+32(FP), R9   \
	MOVQ         tab+40(FP), R10 \
	MOVQ         n+48(FP), CX    \
	MOVL         gap+60(FP), AX  \
	VMOVD        AX, X8          \
	VPBROADCASTD X8, Y8          \
	MOVL         limit+64(FP), AX \
	VMOVD        AX, X9          \
	VPBROADCASTD X9, Y9          \
	MOVL         NEGINF32, AX    \
	VMOVD        AX, X10         \
	VPBROADCASTD X10, Y10        \
	VMOVDQA      Y10, Y7         \
	VMOVDQU      -4(SI), Y0      \
	MOVL         wlast+56(FP), AX \
	VMOVD        AX, X1          \
	VPBLENDD     $1, Y1, Y0, Y0

// ROW_STEP computes and stores the vector of eight cells k..k+7 and
// steps every pointer to the next vector:
//
//	s    = d2[k−1..k+6] + sext(tab[hq[k..]][vq[k..]])
//	g    = max(d1[k−1..k+6], d1[k..k+7]) + gap
//	MASKS — s in Y0 and g in Y2 are both still whole here
//	s    = max(s, g)
//	s    = s < limit ? negInf : s          (Y3 = the pruned lanes)
//	best = max(best, s); out[k..k+7] = s
//
// In place, out trails d2 by cl−d2cl ≥ 0 cells, so the store of
// out[k..k+7] overwrites d2[k+7] — lane 0 of the next vector's diagonal
// operand — exactly when that distance is zero: the next operand is
// loaded into Y1 before the store. Y3 outlives the step.
#define ROW_STEP(MASKS) \
	VMOVDQU    28(SI), Y1      \
	VMOVQ      (R8), X4        \
	VMOVQ      (R9), X5        \
	VPUNPCKLBW X4, X5, X4      \
	VMOVQ      X4, AX          \
	VPEXTRQ    $1, X4, BX      \
	LANE(AX, 0)                \
	LANE(BX, 4)                \
	LANE(AX, 1)                \
	LANE(BX, 5)                \
	LANE(AX, 2)                \
	LANE(BX, 6)                \
	LANE(AX, 3)                \
	LANE(BX, 7)                \
	VPMOVSXBD  X6, Y4          \
	VPADDD     Y4, Y0, Y0      \
	VMOVDQU    -4(DX), Y2      \
	VPMAXSD    (DX), Y2, Y2    \
	VPADDD     Y8, Y2, Y2      \
	MASKS                      \
	VPMAXSD    Y2, Y0, Y0      \
	VPCMPGTD   Y0, Y9, Y3      \
	VPBLENDVB  Y3, Y10, Y0, Y0 \
	VPMAXSD    Y0, Y7, Y7      \
	VMOVDQU    Y0, (DI)        \
	VMOVDQA    Y1, Y0          \
	ADDQ       $32, DI         \
	ADDQ       $32, SI         \
	ADDQ       $32, DX         \
	ADDQ       $8, R8          \
	ADDQ       $8, R9

// The score row keeps no masks.
#define ROW_NOMASKS

// ROW_DIRMASKS keeps the two compares a direction code needs: Y12 =
// gapTaken (g > s, strictly — the diagonal wins ties) and Y11 = leftWins
// (d1[k] > d1[k−1], strictly — up wins ties).
#define ROW_DIRMASKS \
	VPCMPGTD Y0, Y2, Y12 \
	VMOVDQU  (DX), Y5    \
	VPCMPGTD -4(DX), Y5, Y11

// ROW_LEAVE reduces the row maximum into AX.
#define ROW_LEAVE \
	VEXTRACTI128 $1, Y7, X2  \
	VPMAXSD      X2, X7, X7  \
	VPSHUFD      $0x4E, X7, X2 \
	VPMAXSD      X2, X7, X7  \
	VPSHUFD      $0xB1, X7, X2 \
	VPMAXSD      X2, X7, X7  \
	VMOVD        X7, AX

// func rowLinearVec(out, d2, d1 *int32, hq, vq *byte, tab *scoring.PairTable, n int, wlast, gap, limit int32) (best, carry int32)
TEXT ·rowLinearVec(SB), NOSPLIT, $0-80
	ROW_ENTER

loop:
	ROW_STEP(ROW_NOMASKS)
	SUBQ $8, CX
	JNZ  loop

	ROW_LEAVE
	MOVL  AX, best+72(FP)
	VMOVD X0, AX
	MOVL  AX, carry+76(FP)
	VZEROUPPER
	RET

// func rowCodesVec(out, d2, d1 *int32, hq, vq *byte, tab *scoring.PairTable, n int, wlast, gap, limit int32, codes *byte) (best int32)
//
// rowLinearVec's arithmetic plus one direction-code byte per cell, from
// the masks that arithmetic leaves behind:
//
//	code = 1 + gapTaken + (gapTaken ∧ leftWins), 0 where pruned
//
// i.e. codeDiag / codeUp / codeLeft / codeNone. Any n ≥ 8: cells past the
// last whole vector are covered by one more vector over [n−8, n). That
// recomputes up to seven cells from unchanged operands, which is legal
// only because out aliases neither d2 nor d1 here.
TEXT ·rowCodesVec(SB), NOSPLIT, $0-84
	ROW_ENTER
	MOVQ         codes+72(FP), R12
	MOVL         $1, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13          // Y13 = 1
	MOVQ         CX, R13
	ANDQ         $7, R13           // cells past the last whole vector
	SUBQ         R13, CX

loop:
	ROW_STEP(ROW_DIRMASKS)
	VPAND        Y12, Y11, Y11     // gapTaken ∧ leftWins
	VPADDD       Y12, Y11, Y11     // −(gapTaken + gapTaken∧leftWins)
	VPSUBD       Y11, Y13, Y11     // 1 + gapTaken + gapTaken∧leftWins
	VPANDN       Y11, Y3, Y11      // pruned lanes = codeNone
	VEXTRACTI128 $1, Y11, X5
	VPACKSSDW    X5, X11, X11
	VPACKUSWB    X11, X11, X11
	VMOVQ        X11, (R12)
	ADDQ         $8, R12
	SUBQ         $8, CX
	JNZ          loop

	TESTQ R13, R13
	JZ    done
	SUBQ  $8, R13                  // step back to cell n−8
	LEAQ  (DI)(R13*4), DI
	LEAQ  (SI)(R13*4), SI
	LEAQ  (DX)(R13*4), DX
	ADDQ  R13, R8
	ADDQ  R13, R9
	ADDQ  R13, R12
	VMOVDQU -4(SI), Y0
	XORQ  R13, R13
	MOVQ  $8, CX
	JMP   loop

done:
	ROW_LEAVE
	MOVL AX, best+80(FP)
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
