//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"

// sweepLinearVec runs the whole antidiagonal loop of both linear int32
// sweeps: the score sweep's (linearSweep) and the recording sweep's
// (fusedLinear). Their rows compute the cells with one recurrence,
// ROW_STEP, expanded with the choices of a row as macro parameters: where
// the similarity comes from (SIM_TABLE / SIM_EQ), whether the direction
// compares are kept (ROW_NOMASKS / ROW_DIRMASKS), and how the step stores
// (ROW_STORE_WHOLE for a whole vector, SWEEP_STORE_TAIL for a row's masked
// tail). A score row and a recording row are different SWEEP_WHOLE
// instantiations, chosen once per row; the recording one also packs each
// step's direction codes (ROW_PUT) into the tracer's code stream.
//
// Registers of a row: DI out, SI d2, DX d1, R8 hq, R9 vq, R10 the
// similarity table (nil: compare form), CX cells left; AX BX R11 scratch.
// Y0 the diagonal operand, then the cells; Y1 the next diagonal operand
// (tail: the lane mask); Y7 the running row maximum; Y8 gap, Y9 limit, Y10
// negInf; Y14 match, Y15 mismatch, X6 the wildcard byte ×16; Y2–Y5
// temporaries; a recording row's direction masks are Y11 and Y5. The
// sweep's own registers are listed with it.

// rowLaneMask is eight all-ones dwords then eight zero dwords: the 32 bytes
// at offset 4·(8−r) are the lane mask of a tail of r cells, lanes 0..r−1
// set.
DATA rowLaneMask<>+0(SB)/8, $0xffffffffffffffff
DATA rowLaneMask<>+8(SB)/8, $0xffffffffffffffff
DATA rowLaneMask<>+16(SB)/8, $0xffffffffffffffff
DATA rowLaneMask<>+24(SB)/8, $0xffffffffffffffff
DATA rowLaneMask<>+32(SB)/8, $0
DATA rowLaneMask<>+40(SB)/8, $0
DATA rowLaneMask<>+48(SB)/8, $0
DATA rowLaneMask<>+56(SB)/8, $0
GLOBL rowLaneMask<>(SB), RODATA|NOPTR, $64

// rowNegInf is the pruned-cell sentinel negInf32 (dp.go).
DATA rowNegInf<>+0(SB)/4, $const_negInf32
GLOBL rowNegInf<>(SB), RODATA|NOPTR, $4

// ROW_FETCH loads what a whole step takes from beyond its own cells: the
// next vector's diagonal operand d2[k+7..k+14] — before this step's store,
// see ROW_STORE_WHOLE — and the eight h and v bytes.
#define ROW_FETCH \
	VMOVDQU 28(SI), Y1 \
	VMOVQ   (R8), X4   \
	VMOVQ   (R9), X5

// LANE looks up tab[h][v] for the 16-bit index h<<8|v in the low word of
// idx and inserts the byte into lane n of X5; idx is shifted on to the
// next index.
#define LANE(idx, n) \
	MOVWLZX idx, R11             \
	SHRQ    $16, idx             \
	VPINSRB $n, (R10)(R11*1), X5, X5

// SIM_TABLE is the similarity of any scorer: Y4 = sext(tab[h][v]) for the
// eight h bytes in X4 and v bytes in X5, eight scalar loads (a tail's
// spare lanes look up whatever the pad bytes index).
#define SIM_TABLE \
	VPUNPCKLBW X4, X5, X4 \
	VMOVQ      X4, AX     \
	VPEXTRQ    $1, X4, BX \
	LANE(AX, 0)           \
	LANE(BX, 4)           \
	LANE(AX, 1)           \
	LANE(BX, 5)           \
	LANE(AX, 2)           \
	LANE(BX, 6)           \
	LANE(AX, 3)           \
	LANE(BX, 7)           \
	VPMOVSXBD  X5, Y4

// SIM_EQ is the similarity of a match/mismatch scorer (rowSim, dp.go):
// Y4 = h == v && h != wildcard ? match : mismatch.
#define SIM_EQ \
	VPCMPEQB  X4, X5, X5 \
	VPCMPEQB  X6, X4, X4 \
	VPANDN    X5, X4, X4 \
	VPMOVSXBD X4, Y4     \
	VPBLENDVB Y4, Y14, Y15, Y4

// ROW_STEP computes the vector of cells k..k+7 from the diagonal operand
// in Y0 and the sequence bytes in X4 and X5:
//
//	s = d2[k−1..k+6] + SIM
//	g = max(d1[k−1..k+6], d1[k..k+7]) + gap       (Y2 and Y5)
//	MASKS — s in Y0, g in Y4 and the two d1 vectors are all still whole here
//	s = max(s, g)
//	Y3 = s < limit                                 (the pruned lanes)
//	STORE — s = Y3 ? negInf : s; best = max(best, s); out[k..] = s
//
// d1 is loaded whole in every step: the buffers have spare cells behind
// every row, and a lane past the row never reaches a stored cell. Y3
// outlives the step.
#define ROW_STEP(SIM, MASKS, STORE) \
	SIM                        \
	VPADDD     Y4, Y0, Y0      \
	VMOVDQU    -4(DX), Y2      \
	VMOVDQU    (DX), Y5        \
	VPMAXSD    Y5, Y2, Y4      \
	VPADDD     Y8, Y4, Y4      \
	MASKS                      \
	VPMAXSD    Y4, Y0, Y0      \
	VPCMPGTD   Y0, Y9, Y3      \
	STORE

// A whole step stores all eight cells, then steps every pointer to the
// next vector. In place, out trails d2 by cl−d2cl ≥ 0 cells, so the store
// of out[k..k+7] overwrites d2[k+7] — lane 0 of the next vector's diagonal
// operand — exactly when that distance is zero: ROW_FETCH has loaded that
// operand into Y1 before the store.
#define ROW_STORE_WHOLE \
	VPBLENDVB Y3, Y10, Y0, Y0 \
	VPMAXSD Y0, Y7, Y7 \
	VMOVDQU Y0, (DI)   \
	VMOVDQA Y1, Y0     \
	ADDQ    $32, DI    \
	ADDQ    $32, SI    \
	ADDQ    $32, DX    \
	ADDQ    $8, R8     \
	ADDQ    $8, R9

// SWEEP_STORE_TAIL is the tail store: it touches memory only in the lanes
// of SWEEP_TAIL_FETCH's mask (Y1). The row's live bounds want the live
// lanes inside the row anyway (Y2, kept), so pruned and out-of-row lanes
// become −∞ in one blend, before they can reach the row maximum.
#define SWEEP_STORE_TAIL \
	VPANDN     Y1, Y3, Y2      \
	VPBLENDVB  Y2, Y0, Y10, Y0 \
	VPMAXSD    Y0, Y7, Y7      \
	VPMASKMOVD Y0, Y1, (DI)

// The score row keeps no masks and puts no codes.
#define ROW_NOMASKS
#define ROW_NOPUT

// ROW_DIRMASKS keeps the two compares a direction code needs: Y11 =
// gapTaken (g > s, strictly — the diagonal wins ties) and Y5 = leftWins
// (d1[k] > d1[k−1], strictly — up wins ties).
#define ROW_DIRMASKS \
	VPCMPGTD Y0, Y4, Y11 \
	VPCMPGTD Y2, Y5, Y5

// ROW_PACK turns the masks a ROW_STEP(…, ROW_DIRMASKS, …) left behind, and
// the pruned lanes in Y3, into the eight cells' packed direction codes,
// cell k in bits 2k and 2k+1 of AX (bits 16 and up zero):
//
//	bit 1 = ¬pruned ∧ gapTaken
//	bit 0 = ¬pruned ∧ (¬gapTaken ∨ leftWins)
//
// i.e. codeNone / codeDiag / codeUp / codeLeft. Bit 0 is built inverted,
// as (gapTaken ∧ ¬leftWins) ∨ pruned, and flipped by the closing XOR.
// Interleaving the two masks dword by dword (VPUNPCKLDQ / VPUNPCKHDQ), then
// narrowing across the halves (VPACKSSDW) and the 128-bit lanes
// (VPACKSSWB) leaves sixteen bytes in bit order, whose signs VPMOVMSKB
// collects.
#define ROW_PACK \
	VPANDN       Y11, Y5, Y5   \
	VPOR         Y3, Y5, Y5    \
	VPANDN       Y11, Y3, Y11  \
	VPUNPCKLDQ   Y11, Y5, Y4   \
	VPUNPCKHDQ   Y11, Y5, Y5   \
	VPACKSSDW    Y5, Y4, Y4    \
	VEXTRACTI128 $1, Y4, X5    \
	VPACKSSWB    X5, X4, X4    \
	VPMOVMSKB    X4, AX        \
	XORL         $0x5555, AX

// ROW_PUT appends a whole step's sixteen code bits to the packed stream
// (sweepState's dirs, dirb, carry, bits, mul): shifted up to the stream's
// bit position (× mul), under the carry — the bits of byte dirb that are
// already decided — one 16-bit store, and the bits shifted past it become
// the next carry. The position within a byte does not move.
#define ROW_PUT \
	ROW_PACK                        \
	IMULL sweepState_mul(R13), AX   \
	ORL   sweepState_carry(R13), AX \
	MOVQ  sweepState_dirs(R13), BX  \
	ADDQ  sweepState_dirb(R13), BX  \
	MOVW  AX, (BX)                  \
	SHRL  $16, AX                   \
	MOVL  AX, sweepState_carry(R13) \
	ADDQ  $2, sweepState_dirb(R13)

// ROW0 is the byte offset of a stored row's first cell behind its buffer's
// lower guards.
#define ROW0 (4*const_bufPad)

// SWEEP_TAIL_FETCH is the fetch for the r = CX cells, one to eight, of a
// row's last vector: Y1 becomes their lane mask, and X4 and X5 load eight
// bytes each — the operands are staged with seqPad bytes behind them, and
// the lanes past the row are masked off.
#define SWEEP_TAIL_FETCH \
	MOVQ    $8, BX                \
	SUBQ    CX, BX                \
	LEAQ    rowLaneMask<>(SB), AX \
	VMOVDQU (AX)(BX*4), Y1        \
	VMOVQ   (R8), X4              \
	VMOVQ   (R9), X5

// SWEEP_BOUNDS folds a vector's live lanes, the non-zero bits of AX, into
// the row's live bounds. Lane 0 is cell R12 − CX. hi (R15) is the highest
// live cell so far, a bit scan; lo (R14), the lowest, is counted up to
// through branches when this is the row's first live vector (R14 is still
// cu + 1): the next row's addresses all hang on it, and a predicted branch
// lets them issue where a bit scan makes them wait for this row's cells.
#define SWEEP_BOUNDS(lobit, done) \
	MOVQ R12, BX           \
	SUBQ CX, BX            \
	BSRL AX, R11           \
	LEAQ (BX)(R11*1), R15  \
	CMPQ R14, R12          \
	JNE  done              \
	MOVQ BX, R14           \
lobit:                     \
	SHRL $1, AX            \
	JCS  done              \
	INCQ R14               \
	JMP  lobit             \
done:

// SWEEP_WHOLE is a whole step of a row and its loop control: a vector is
// whole while more than eight cells are left, so that every row ends in a
// tail step.
#define SWEEP_WHOLE(SIM, MASKS, PUT, loop, lobit, dead) \
loop:                         \
	ROW_FETCH                 \
	ROW_STEP(SIM, MASKS, ROW_STORE_WHOLE) \
	PUT                       \
	VMOVMSKPS Y3, AX          \
	XORL      $0xff, AX       \
	JZ        dead            \
	SWEEP_BOUNDS(lobit, dead) \
	SUBQ      $8, CX          \
	CMPQ      CX, $8          \
	JG        loop

// func sweepLinearVec(st *sweepState)
//
// linearSweep's antidiagonal loop (linear.go), statement for statement,
// with the row computed by ROW_STEP: no boundary cell is peeled, because
// the −∞ guards around every stored row and the pad bytes around both
// operands make the general recurrence yield them (see linearSweep). With
// st.record set it is fusedLinear's loop: the same rows, each of which
// also writes the tracer's window index and its cells' direction codes.
//
// Registers, beyond the rows' (top of file): R13 st; between rows R14 and
// R15 are d1lo and d1hi, inside a row the bounds it has found so far
// (SWEEP_BOUNDS) and R12 is cu + 1. Y9 is the prune limit of the next row
// to compute, Y12 is X; the row maximum is reduced across Y7's lanes and
// folded into Y9 without leaving the vector registers. Everything else of
// sweepState is read and written in place.
TEXT ·sweepLinearVec(SB), NOSPLIT, $0-8
	MOVQ         st+0(FP), R13
	VPBROADCASTD (sweepState_sim+rowSim_match)(R13), Y14
	VPBROADCASTD (sweepState_sim+rowSim_mismatch)(R13), Y15
	VPBROADCASTB (sweepState_sim+rowSim_wildcard)(R13), X6
	MOVQ         (sweepState_sim+rowSim_tab)(R13), R10
	VPBROADCASTD sweepState_gap(R13), Y8
	VPBROADCASTD sweepState_x(R13), Y12
	VPBROADCASTD sweepState_limit(R13), Y9
	VPBROADCASTD rowNegInf<>(SB), Y10
	MOVQ         sweepState_d1lo(R13), R14
	MOVQ         sweepState_d1hi(R13), R15

row:
	// cl = max(d1lo, d−n) in AX, cu = min(d1hi+1, m) in BX — d1hi is a cell
	// of d−1, so d1hi+1 ≤ d already — and the width in CX. d−n > m once
	// d > m+n, so cl > cu is the loop's bound as well.
	MOVQ    sweepState_d(R13), R12
	MOVQ    R12, AX
	SUBQ    sweepState_n(R13), AX
	CMPQ    AX, R14
	CMOVQLT R14, AX
	LEAQ    1(R15), BX
	MOVQ    sweepState_m(R13), CX
	CMPQ    BX, CX
	CMOVQGT CX, BX
	MOVQ    BX, CX
	SUBQ    AX, CX
	INCQ    CX
	JLE     finished
	CMPQ    CX, sweepState_capacity(R13)
	JGT     clamp

window:
	// Cell cl of out (behind its lower guards, written here), d−2, d−1, and
	// its h and v bytes: hq[cl−1], vq[n−d+cl].
	MOVQ    AX, sweepState_cl(R13)
	MOVQ    sweepState_d1(R13), DX
	MOVQ    AX, R11
	SUBQ    sweepState_d1cl(R13), R11
	LEAQ    ROW0(DX)(R11*4), DX
	MOVQ    sweepState_d2(R13), SI
	MOVQ    AX, R11
	SUBQ    sweepState_d2cl(R13), R11
	LEAQ    ROW0(SI)(R11*4), SI
	MOVQ    sweepState_out(R13), DI
	VMOVQ   X10, (DI)
	ADDQ    $ROW0, DI
	MOVQ    sweepState_hq(R13), R8
	LEAQ    -1(R8)(AX*1), R8
	MOVQ    sweepState_vq(R13), R9
	ADDQ    AX, R9
	SUBQ    R12, R9
	ADDQ    sweepState_n(R13), R9
	VMOVDQA Y10, Y7
	VMOVDQU -4(SI), Y0
	CMPB    sweepState_record(R13), $0
	JNE     recrow
	LEAQ    1(BX), R12
	MOVQ    R12, R14
	MOVQ    $-1, R15
	TESTQ   R10, R10
	JZ      eqrow
	CMPQ    CX, $8
	JLE     tabtail
	SWEEP_WHOLE(SIM_TABLE, ROW_NOMASKS, ROW_NOPUT, tabloop, tablo, tabdead)

tabtail:
	SWEEP_TAIL_FETCH
	ROW_STEP(SIM_TABLE, ROW_NOMASKS, SWEEP_STORE_TAIL)
	JMP  stored

eqrow:
	CMPQ CX, $8
	JLE  eqtail
	SWEEP_WHOLE(SIM_EQ, ROW_NOMASKS, ROW_NOPUT, eqloop, eqlo, eqdead)

eqtail:
	SWEEP_TAIL_FETCH
	ROW_STEP(SIM_EQ, ROW_NOMASKS, SWEEP_STORE_TAIL)

stored:
	// The tail's live lanes, and the row's upper guards behind its CX cells.
	VMOVMSKPS Y2, AX
	TESTL     AX, AX
	JZ        taildead
	SWEEP_BOUNDS(taillo, taildead)
	VMOVQ X10, (DI)(CX*4)

	// rowBest into every lane of Y7; limit = max(limit, rowBest − X), which
	// is pruneLimit(max(t, rowBest)).
	VPERM2I128 $1, Y7, Y7, Y2
	VPMAXSD    Y2, Y7, Y7
	VPSHUFD    $0x4E, Y7, Y2
	VPMAXSD    Y2, Y7, Y7
	VPSHUFD    $0xB1, Y7, Y2
	VPMAXSD    Y2, Y7, Y7
	VPSUBD     Y12, Y7, Y2
	VPMAXSD    Y2, Y9, Y9

	// statAcc.observe: R12 becomes the width.
	MOVQ sweepState_cl(R13), BX
	SUBQ BX, R12
	ADDQ R12, (sweepState_acc+statAcc_cells)(R13)
	LEAQ 31(R12), AX
	SHRQ $5, AX
	ADDQ AX, (sweepState_acc+statAcc_chunks32)(R13)
	LEAQ 127(R12), AX
	SHRQ $7, AX
	ADDQ AX, (sweepState_acc+statAcc_chunks128)(R13)
	MOVQ sweepState_d(R13), R12
	LEAQ 1(R12), AX
	MOVQ AX, sweepState_d(R13)
	TESTQ R15, R15
	JS   finished
	MOVQ R15, AX
	SUBQ R14, AX
	INCQ AX
	MOVQ (sweepState_acc+statAcc_maxLive)(R13), CX
	CMPQ AX, CX
	CMOVQGT AX, CX
	MOVQ CX, (sweepState_acc+statAcc_maxLive)(R13)

	// A new best takes the first cell from lo on that holds it.
	VMOVD X7, AX
	MOVL  AX, sweepState_d1best(R13)
	CMPL  AX, sweepState_best(R13)
	JLE   rotate
	MOVL  AX, sweepState_best(R13)
	MOVQ  R12, sweepState_bestD(R13)
	MOVQ  sweepState_out(R13), SI
	ADDQ  $ROW0, SI
	MOVQ  BX, R11

bestscan:
	CMPQ      SI, DI
	JEQ       besttail
	VPCMPEQD  (SI), Y7, Y2
	VMOVMSKPS Y2, AX
	TESTL     AX, AX
	JNZ       bestfound
	ADDQ      $32, SI
	ADDQ      $8, R11
	JMP       bestscan

besttail:
	VPCMPEQD  Y0, Y7, Y2
	VMOVMSKPS Y2, AX

bestfound:
	BSFL AX, AX
	ADDQ R11, AX
	MOVQ AX, sweepState_bestI(R13)

rotate:
	// The row becomes d−1, d−1 becomes d−2, and the next row goes to the
	// old d−2's buffer — which in place (out was d−2's) is the new d−2's.
	MOVQ    sweepState_d1(R13), AX
	MOVQ    sweepState_d2(R13), CX
	MOVQ    sweepState_out(R13), DX
	MOVQ    DX, sweepState_d1(R13)
	MOVQ    AX, sweepState_d2(R13)
	CMPQ    CX, DX
	CMOVQEQ AX, CX
	MOVQ    CX, sweepState_out(R13)
	MOVQ    sweepState_d1cl(R13), AX
	MOVQ    AX, sweepState_d2cl(R13)
	MOVQ    BX, sweepState_d1cl(R13)
	DECQ    sweepState_rows(R13)
	JNZ     row
	JMP     leave

recrow:
	// A recording row first takes its window in the tracer: offs[d+1] =
	// offs[d] + width — unless that passes cellEnd, when the call returns
	// before the row, its state untouched — and cls[d] = cl.
	MOVQ    sweepState_d(R13), R12
	MOVQ    sweepState_offs(R13), R11
	MOVLQZX (R11)(R12*4), AX
	ADDQ    CX, AX
	CMPQ    AX, sweepState_cellEnd(R13)
	JGT     leave
	MOVL    AX, 4(R11)(R12*4)
	MOVQ    sweepState_cls(R13), R11
	MOVQ    sweepState_cl(R13), AX
	MOVL    AX, (R11)(R12*4)
	LEAQ    1(BX), R12
	MOVQ    R12, R14
	MOVQ    $-1, R15
	TESTQ   R10, R10
	JZ      receqrow
	CMPQ    CX, $8
	JLE     rectabtail
	SWEEP_WHOLE(SIM_TABLE, ROW_DIRMASKS, ROW_PUT, rectabloop, rectablo, rectabdead)

rectabtail:
	SWEEP_TAIL_FETCH
	ROW_STEP(SIM_TABLE, ROW_DIRMASKS, SWEEP_STORE_TAIL)
	JMP  rectail

receqrow:
	CMPQ CX, $8
	JLE  receqtail
	SWEEP_WHOLE(SIM_EQ, ROW_DIRMASKS, ROW_PUT, receqloop, receqlo, receqdead)

receqtail:
	SWEEP_TAIL_FETCH
	ROW_STEP(SIM_EQ, ROW_DIRMASKS, SWEEP_STORE_TAIL)

rectail:
	// The tail's codes, with the lanes past the row counted as pruned (Y3 =
	// ¬Y2) so that their bits are zero, join the stream behind the carry:
	// its 2r code bits and the carry's bits make T bits, of which the whole
	// bytes are stored and the rest — T mod 8 of them — is the new carry.
	// CX (r) is kept in R11 for the row's bounds.
	VPCMPEQD Y4, Y4, Y4
	VPANDN   Y4, Y2, Y3
	ROW_PACK
	MOVQ     CX, R11
	IMULL    sweepState_mul(R13), AX
	ORL      sweepState_carry(R13), AX
	MOVL     sweepState_bits(R13), CX
	LEAL     (CX)(R11*2), CX
	MOVQ     sweepState_dirs(R13), BX
	ADDQ     sweepState_dirb(R13), BX
	CMPL     CX, $16
	JB       recbyte
	MOVW     AX, (BX)
	SHRL     $16, AX
	ADDQ     $2, BX
	SUBL     $16, CX

recbyte:
	CMPL CX, $8
	JB   reccarry
	MOVB AX, (BX)
	SHRL $8, AX
	INCQ BX
	SUBL $8, CX

reccarry:
	SUBQ sweepState_dirs(R13), BX
	MOVQ BX, sweepState_dirb(R13)
	MOVL AX, sweepState_carry(R13)
	MOVL CX, sweepState_bits(R13)
	MOVL $1, AX
	SHLL CX, AX
	MOVL AX, sweepState_mul(R13)
	MOVQ R11, CX
	JMP  stored

clamp:
	// The window would outgrow δb: re-centre it on the first cell of d−1,
	// from d1lo on, that holds d1best — there is one, and the scan reads up
	// to seven cells behind it — within [cl, cu−δb+1].
	MOVB         $1, sweepState_clamped(R13)
	MOVQ         sweepState_d1(R13), SI
	MOVQ         R14, R11
	SUBQ         sweepState_d1cl(R13), R11
	LEAQ         ROW0(SI)(R11*4), SI
	VPBROADCASTD sweepState_d1best(R13), Y3
	MOVQ         R14, R11

clampscan:
	VPCMPEQD  (SI), Y3, Y2
	VMOVMSKPS Y2, DX
	ADDQ      $32, SI
	ADDQ      $8, R11
	TESTL     DX, DX
	JZ        clampscan
	BSFL      DX, DX
	LEAQ      -8(R11)(DX*1), R11
	MOVQ    sweepState_capacity(R13), CX
	MOVQ    CX, DX
	SHRQ    $1, DX
	SUBQ    DX, R11
	CMPQ    R11, AX
	CMOVQLT AX, R11
	MOVQ    BX, DX
	SUBQ    CX, DX
	INCQ    DX
	CMPQ    R11, DX
	CMOVQGT DX, R11
	MOVQ    R11, AX
	LEAQ    -1(AX)(CX*1), BX
	JMP     window

finished:
	MOVB $1, sweepState_done(R13)

leave:
	MOVQ  R14, sweepState_d1lo(R13)
	MOVQ  R15, sweepState_d1hi(R13)
	VMOVD X9, sweepState_limit(R13)
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
