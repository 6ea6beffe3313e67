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
// tail). The loop around the rows is one macro too, SWEEP_LOOP, expanded
// once per row kind and similarity form; a call picks its expansion at
// entry, and no row tests the kind or the form again. The recording kind
// also packs each step's direction codes (ROW_PUT) into the tracer's code
// stream. The score kind runs a queue of extensions on two lanes, a row of
// each in turn (SWEEP_SWAP), and refills a lane in place when its
// extension ends (SWEEP_REFILL).
//
// Registers of a row: DI, SI and DX the bases of out, d−2 and d−1 — cell i
// of each at base + 4i — R8 and R9 the bases of hq and vq — cell i's bytes
// at R8 + i − 1 and R9 + i — R12 the first cell of the current vector, the
// one index of every load and store; R10 the similarity table (table
// form), CX the row's last cell − 7; AX BX R11 scratch. Y0 the diagonal
// operand, then the cells; Y1 the next diagonal operand (tail: the lane
// mask); Y7 the running row maximum; Y8 gap, Y9 limit, Y10 negInf; Y14
// match, Y15 mismatch, X6 the wildcard byte ×16; Y2–Y5 temporaries; a
// recording row's direction masks are Y11 and Y5. The sweep's own
// registers are listed with it.

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
	VMOVDQU 28(SI)(R12*4), Y1 \
	VMOVQ   -1(R8)(R12*1), X4 \
	VMOVQ   (R9)(R12*1), X5

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

// ROW_STEP computes the vector of cells k..k+7 (k = R12) from the diagonal
// operand in Y0 and the sequence bytes in X4 and X5:
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
	SIM                              \
	VPADDD     Y4, Y0, Y0            \
	VMOVDQU    -4(DX)(R12*4), Y2     \
	VMOVDQU    (DX)(R12*4), Y5       \
	VPMAXSD    Y5, Y2, Y4            \
	VPADDD     Y8, Y4, Y4            \
	MASKS                            \
	VPMAXSD    Y4, Y0, Y0            \
	VPCMPGTD   Y0, Y9, Y3            \
	STORE

// A whole step stores all eight cells. In place, out trails d2 by
// cl−d2cl ≥ 0 cells, so the store of out[k..k+7] overwrites d2[k+7] — lane
// 0 of the next vector's diagonal operand — exactly when that distance is
// zero: ROW_FETCH has loaded that operand into Y1 before the store.
#define ROW_STORE_WHOLE \
	VPBLENDVB Y3, Y10, Y0, Y0 \
	VPMAXSD   Y0, Y7, Y7      \
	VMOVDQU   Y0, (DI)(R12*4) \
	VMOVDQA   Y1, Y0

// SWEEP_STORE_TAIL is the tail store: it touches memory only in the lanes
// of the tail's mask (Y1). The row's live bounds want the live lanes
// inside the row anyway (Y2, kept), so pruned and out-of-row lanes become
// −∞ in one blend, before they can reach the row maximum.
#define SWEEP_STORE_TAIL \
	VPANDN     Y1, Y3, Y2      \
	VPBLENDVB  Y2, Y0, Y10, Y0 \
	VPMAXSD    Y0, Y7, Y7      \
	VPMASKMOVD Y0, Y1, (DI)(R12*4)

// The score row keeps no masks, puts no codes and has no recording head or
// tail.
#define ROW_NOMASKS
#define ROW_NOPUT
#define SWEEP_NOREC

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

// SWEEP_BOUNDS folds a vector's live lanes, the non-zero bits of AX, into
// the row's live bounds. Lane 0 is cell R12. hi (R15) is the highest live
// cell so far and −1 before the row's first live vector; lo (R14), the
// lowest, is set by the first one. Both are bit scans: every address of
// the next row hangs on lo, but after a row of one or two vectors the next
// row is the other lane's, and a longer row has work of its own to
// overlap, so lo takes no data-dependent branch (DESIGN.md "The resident
// sweep" has the pairs that decided it).
#define SWEEP_BOUNDS(done) \
	BSRL  AX, R11           \
	TESTQ R15, R15          \
	LEAQ  (R12)(R11*1), R15 \
	JNS   done              \
	BSFL  AX, R14           \
	ADDQ  R12, R14          \
done:

// SWEEP_WHOLE is a whole step of a row and its loop control: a vector is
// whole while more than eight cells are left, so that every row ends in a
// tail step. One index register, R12, steps every stream.
#define SWEEP_WHOLE(SIM, MASKS, PUT, loop, dead) \
loop:                         \
	ROW_FETCH                 \
	ROW_STEP(SIM, MASKS, ROW_STORE_WHOLE) \
	PUT                       \
	VMOVMSKPS Y3, AX          \
	XORL      $0xff, AX       \
	JZ        dead            \
	SWEEP_BOUNDS(dead)        \
	ADDQ      $8, R12         \
	CMPQ      R12, CX         \
	JLT       loop

// SWEEP_RECHEAD is a recording row's head: before the row takes its window
// in the tracer — offs[d+1] = offs[d] + width, cls[d] = cl — the call
// returns if the row would end past cellEnd, its state untouched. AX is
// cl, BX width − 1.
#define SWEEP_RECHEAD \
	MOVQ    sweepState_vq(R13), R11   \
	ADDQ    sweepState_n(R13), R11    \
	SUBQ    R9, R11                   \
	MOVQ    sweepState_offs(R13), DI  \
	MOVLQZX (DI)(R11*4), R12          \
	LEAQ    1(R12)(BX*1), R12         \
	CMPQ    R12, sweepState_cellEnd(R13) \
	JGT     leave                     \
	MOVL    R12, 4(DI)(R11*4)         \
	MOVQ    sweepState_cls(R13), DI   \
	MOVL    AX, (DI)(R11*4)

// SWEEP_RECTAIL packs a recording row's tail: its codes, with the lanes
// past the row counted as pruned (Y3 = ¬Y2) so that their bits are zero,
// join the stream behind the carry: its 2r code bits and the carry's bits
// make T ≤ 23 bits, of which the whole bytes are stored and the rest — T mod
// 8 of them — is the new carry. T moves with the row's width, so no branch
// tests it: the byte is stored for T ≥ 8 and the word for T ≥ 16, each at
// byte dirb of the stream or, below its threshold, at sweepState's sink,
// whichever address a CMOV picks (the word's low byte is the byte); dirb,
// the carry, bits and mul follow from T by arithmetic. CX is kept at 24(SP)
// meanwhile, which the recording kind does not read after wided.
#define SWEEP_RECTAIL \
	VPCMPEQD Y4, Y4, Y4              \
	VPANDN   Y4, Y2, Y3              \
	ROW_PACK                         \
	MOVQ     CX, 24(SP)              \
	LEAQ     8(CX), BX               \
	SUBQ     R12, BX                 \
	IMULL    sweepState_mul(R13), AX \
	ORL      sweepState_carry(R13), AX \
	MOVL     sweepState_bits(R13), CX \
	LEAL     (CX)(BX*2), CX          \
	MOVQ     sweepState_dirs(R13), BX \
	ADDQ     sweepState_dirb(R13), BX \
	LEAQ     sweepState_sink(R13), R11 \
	CMPL     CX, $8                  \
	CMOVQCC  BX, R11                 \
	MOVB     AX, (R11)               \
	LEAQ     sweepState_sink(R13), R11 \
	CMPL     CX, $16                 \
	CMOVQCC  BX, R11                 \
	MOVW     AX, (R11)               \
	MOVL     CX, BX                  \
	ANDL     $7, BX                  \
	MOVL     BX, sweepState_bits(R13) \
	SUBL     BX, CX                  \
	SHRL     CX, AX                  \
	MOVL     AX, sweepState_carry(R13) \
	SHRL     $3, CX                  \
	ADDQ     CX, sweepState_dirb(R13) \
	MOVL     BX, CX                  \
	MOVL     $1, AX                  \
	SHLL     CX, AX                  \
	MOVL     AX, sweepState_mul(R13) \
	MOVQ     24(SP), CX

// SWEEP_LOOP is linearSweep's antidiagonal loop for one row kind and one
// similarity form, statement for statement: the row head (window cl..cu,
// or the end of the extension), the δb clamp, the row, its guards and live
// bounds, the counters, the first-wins argmax of a new best, the limit and
// the rotation. HEAD and TAIL are what a recording row adds; NEXT is what
// follows a row that leaves budget (the score kind's lane switch), spent
// where a row that spends it goes, END what follows the end of an
// extension (the score kind's refill); the rest of the parameters are the
// expansion's labels.
//
// Row-to-row state in registers (SWEEP_LOAD, SWEEP_SAVE): R13 is the
// lane's sweepState; R8 is hq and R9 vq + n − d, so d − n is vq − R9;
// DX and SI are the bases of d−1 and d−2; BP is the raw buffer of the next
// row; R14 and R15 are d1lo and d1hi; Y7 holds d1best in every lane, Y13
// best, Y9 limit. sweepState holds the constants, the counters (added to
// in place), the raw buffer of d−1 (for the rotation) and the recording
// cursor. The frame holds the row budget the lanes share at 0(SP), the
// other lane's sweepState (or nil) at 8(SP), q at 16(SP) and the row's
// cl + 8 at 24(SP), which only the score kind reads (SWEEP_SWAP, spent).
//
// At window AX is cl, CX cu and BX cu − cl; a clamped window comes back
// there. A row adds its width − 1 to cells and, only when it is wider than
// 32 cells, its 128-cell chunks past the first: finish adds the rest
// from d. maxLive is stored only when it grows. A row with no live cell
// (rowdead) is counted against the budget and ends the extension.
#define SWEEP_LOOP(SIM, MASKS, PUT, HEAD, TAIL, NEXT, END, spent, row, window, wide, wided, loop, dead, tail, taildead, raise, raised, rotate, clamp, clampscan, newbest, bestscan, besttail, bestfound, rowdead, ended) \
row:                                       \
	MOVQ    sweepState_vq(R13), AX         \
	SUBQ    R9, AX                         \
	CMPQ    AX, R14                        \
	CMOVQLT R14, AX                        \
	LEAQ    1(R15), CX                     \
	CMPQ    CX, sweepState_m(R13)          \
	CMOVQGT sweepState_m(R13), CX          \
	MOVQ    CX, BX                         \
	SUBQ    AX, BX                         \
	JLT     ended                          \
	CMPQ    BX, sweepState_capacity(R13)   \
	JGE     clamp                          \
window:                                    \
	HEAD                                   \
	ADDQ    BX, (sweepState_acc+statAcc_cells)(R13) \
	CMPQ    BX, $32                        \
	JGE     wide                           \
wided:                                     \
	VMOVQ   X10, (BP)                      \
	LEAQ    8(AX), DI                      \
	MOVQ    DI, 24(SP)                     \
	MOVQ    AX, DI                         \
	NEGQ    DI                             \
	LEAQ    ROW0(BP)(DI*4), DI             \
	MOVQ    AX, R12                        \
	MOVQ    $-1, R15                       \
	VMOVDQU -4(SI)(R12*4), Y0              \
	VMOVDQA Y10, Y7                        \
	SUBQ    $7, CX                         \
	CMPQ    BX, $8                         \
	JLT     tail                           \
	SWEEP_WHOLE(SIM, MASKS, PUT, loop, dead) \
tail:                                      \
	MOVQ    R12, BX                        \
	SUBQ    CX, BX                         \
	LEAQ    rowLaneMask<>(SB), AX          \
	VMOVDQU (AX)(BX*4), Y1                 \
	VMOVQ   -1(R8)(R12*1), X4              \
	VMOVQ   (R9)(R12*1), X5                \
	ROW_STEP(SIM, MASKS, SWEEP_STORE_TAIL) \
	TAIL                                   \
	VMOVMSKPS Y2, AX                       \
	TESTL   AX, AX                         \
	JZ      taildead                       \
	SWEEP_BOUNDS(taildead)                 \
	VMOVQ   X10, 32(DI)(CX*4)              \
	VPERM2I128 $1, Y7, Y7, Y2              \
	VPMAXSD Y2, Y7, Y7                     \
	VPSHUFD $0x4E, Y7, Y2                  \
	VPMAXSD Y2, Y7, Y7                     \
	VPSHUFD $0xB1, Y7, Y2                  \
	VPMAXSD Y2, Y7, Y7                     \
	VPSUBD  Y12, Y7, Y2                    \
	VPMAXSD Y2, Y9, Y9                     \
	DECQ    R9                             \
	TESTQ   R15, R15                       \
	JS      rowdead                        \
	MOVQ    R15, AX                        \
	SUBQ    R14, AX                        \
	CMPQ    AX, (sweepState_acc+statAcc_maxLive)(R13) \
	JGE     raise                          \
raised:                                    \
	VPCMPGTD X13, X7, X2                   \
	VPTEST  X2, X2                         \
	JNZ     newbest                        \
rotate:                                    \
	MOVQ    DX, SI                         \
	MOVQ    DI, DX                         \
	MOVQ    sweepState_d1(R13), AX         \
	ANDQ    sweepState_s3(R13), AX         \
	XORQ    sweepState_flip(R13), AX       \
	MOVQ    BP, sweepState_d1(R13)         \
	XORQ    AX, BP                         \
	DECQ    0(SP)                          \
	JZ      spent                          \
	NEXT                                   \
wide:                                      \
	MOVQ    BX, R11                        \
	SHRQ    $7, R11                        \
	ADDQ    R11, (sweepState_acc+statAcc_chunks128)(R13) \
	JMP     wided                          \
raise:                                     \
	INCQ    AX                             \
	MOVQ    AX, (sweepState_acc+statAcc_maxLive)(R13) \
	JMP     raised                         \
clamp:                                     \
	MOVB    $1, sweepState_clamped(R13)    \
	LEAQ    (DX)(R14*4), R11               \
	MOVQ    R14, R12                       \
clampscan:                                 \
	VPCMPEQD  (R11), Y7, Y2                \
	VMOVMSKPS Y2, DI                       \
	ADDQ      $32, R11                     \
	ADDQ      $8, R12                      \
	TESTL     DI, DI                       \
	JZ        clampscan                    \
	BSFL    DI, DI                         \
	LEAQ    -8(R12)(DI*1), R12             \
	MOVQ    sweepState_capacity(R13), DI   \
	MOVQ    DI, R11                        \
	SHRQ    $1, R11                        \
	SUBQ    R11, R12                       \
	CMPQ    R12, AX                        \
	CMOVQLT AX, R12                        \
	MOVQ    CX, R11                        \
	SUBQ    DI, R11                        \
	INCQ    R11                            \
	CMPQ    R12, R11                       \
	CMOVQGT R11, R12                       \
	MOVQ    R12, AX                        \
	LEAQ    -1(AX)(DI*1), CX               \
	LEAQ    -1(DI), BX                     \
	JMP     window                         \
newbest:                                   \
	VMOVDQA X7, X13                        \
	MOVQ    sweepState_vq(R13), AX         \
	ADDQ    sweepState_n(R13), AX          \
	SUBQ    R9, AX                         \
	DECQ    AX                             \
	MOVQ    AX, sweepState_bestD(R13)      \
	MOVQ    R14, R11                       \
	SUBQ    R12, R11                       \
	ANDQ    $7, R11                        \
	NEGQ    R11                            \
	ADDQ    R14, R11                       \
bestscan:                                  \
	CMPQ      R11, R12                     \
	JEQ       besttail                     \
	VPCMPEQD  (DI)(R11*4), Y7, Y2          \
	VMOVMSKPS Y2, AX                       \
	TESTL     AX, AX                       \
	JNZ       bestfound                    \
	ADDQ      $8, R11                      \
	JMP       bestscan                     \
besttail:                                  \
	VPCMPEQD  Y0, Y7, Y2                   \
	VMOVMSKPS Y2, AX                       \
bestfound:                                 \
	BSFL    AX, AX                         \
	ADDQ    R11, AX                        \
	MOVQ    AX, sweepState_bestI(R13)      \
	JMP     rotate                         \
rowdead:                                   \
	DECQ    0(SP)                          \
ended:                                     \
	END

// SWEEP_LOAD takes the extension of R13 into the row-to-row registers;
// SWEEP_SAVE puts it back.
#define SWEEP_LOAD \
	MOVQ         sweepState_hq(R13), R8      \
	MOVQ         sweepState_vd(R13), R9      \
	MOVQ         sweepState_d1lo(R13), R14   \
	MOVQ         sweepState_d1hi(R13), R15   \
	VPBROADCASTD sweepState_limit(R13), Y9   \
	VPBROADCASTD sweepState_d1best(R13), Y7  \
	VPBROADCASTD sweepState_best(R13), Y13   \
	MOVQ         sweepState_d1b(R13), DX     \
	MOVQ         sweepState_d2b(R13), SI     \
	MOVQ         sweepState_out(R13), BP

#define SWEEP_SAVE \
	MOVQ  R9, sweepState_vd(R13)      \
	MOVQ  R14, sweepState_d1lo(R13)   \
	MOVQ  R15, sweepState_d1hi(R13)   \
	VMOVD X9, sweepState_limit(R13)   \
	VMOVD X7, sweepState_d1best(R13)  \
	VMOVD X13, sweepState_best(R13)   \
	MOVQ  DX, sweepState_d1b(R13)     \
	MOVQ  SI, sweepState_d2b(R13)     \
	MOVQ  BP, sweepState_out(R13)

// SWEEP_SWAP is the score kind's NEXT: after a row of one or two steps (its
// tail began at most one vector past cl) when the other lane holds an
// extension, this lane's is put back and the other's taken up, so that its
// row runs while the chain from this row's prune mask to this lane's next
// window resolves. A longer row has that much work of its own; the lane
// runs on.
#define SWEEP_SWAP(row) \
	CMPQ  R12, 24(SP) \
	JGT   row         \
	MOVQ  8(SP), AX   \
	TESTQ AX, AX      \
	JZ    row         \
	SWEEP_SAVE        \
	MOVQ  R13, 8(SP)  \
	MOVQ  AX, R13     \
	SWEEP_LOAD        \
	JMP   row

// SWEEP_REFILL is the score kind's END: the extension of R13 is done and
// put back, and the lane takes the next queued state — bound to the
// lane's buffers and rotation, copied from the one that ended, with buf1
// and buf2 seeded as seedDiag seeds them — or, when the queue is empty,
// the lane closes: the other lane's extension, if there is one, runs on
// alone, and if there is none the call returns with both lanes empty.
#define SWEEP_REFILL(row, drained) \
	MOVB    $1, sweepState_done(R13)         \
	SWEEP_SAVE                               \
	MOVQ    16(SP), BX                       \
	MOVQ    sweepQueue_next(BX), AX          \
	CMPQ    AX, sweepQueue_end(BX)           \
	JEQ     drained                          \
	ADDQ    $sweepState__size, sweepQueue_next(BX) \
	MOVQ    sweepState_flip(R13), CX         \
	MOVQ    CX, sweepState_flip(AX)          \
	MOVQ    sweepState_s3(R13), CX           \
	MOVQ    CX, sweepState_s3(AX)            \
	MOVQ    sweepState_buf0(R13), CX         \
	MOVQ    CX, sweepState_buf0(AX)          \
	MOVQ    CX, sweepState_out(AX)           \
	MOVQ    sweepState_buf1(R13), CX         \
	MOVQ    CX, sweepState_buf1(AX)          \
	MOVQ    CX, sweepState_d1(AX)            \
	VMOVDQU X10, (CX)                        \
	MOVL    $0, 8(CX)                        \
	VMOVD   X10, 16(CX)                      \
	ADDQ    $ROW0, CX                        \
	MOVQ    CX, sweepState_d1b(AX)           \
	MOVQ    sweepState_buf2(R13), CX         \
	MOVQ    CX, sweepState_buf2(AX)          \
	VMOVDQU X10, (CX)                        \
	VMOVD   X10, 16(CX)                      \
	ADDQ    $ROW0, CX                        \
	MOVQ    CX, sweepState_d2b(AX)           \
	MOVQ    AX, R13                          \
	SWEEP_LOAD                               \
	CMPQ    0(SP), $0                        \
	JNE     row                              \
	JMP     leave                            \
drained:                                     \
	MOVQ    8(SP), AX                        \
	TESTQ   AX, AX                           \
	JZ      empty                            \
	MOVQ    $0, 8(SP)                        \
	MOVQ    AX, R13                          \
	SWEEP_LOAD                               \
	CMPQ    0(SP), $0                        \
	JNE     row                              \
	JMP     leave

// SWEEP_DONE is the recording kind's END: the call returns.
#define SWEEP_DONE \
	MOVB $1, sweepState_done(R13) \
	JMP  leave

// func sweepLinearVec(q *sweepQueue)
//
// linearSweep's antidiagonal loop (linear.go) with the row computed by
// ROW_STEP: no boundary cell is peeled, because the −∞ guards around every
// stored row and the pad bytes around both operands make the general
// recurrence yield them (see linearSweep). The score kind runs it for the
// two lanes of q, a row of each in turn, and refills a lane from the queue
// when its extension ends. With q.lanes[0].record set it is fusedLinear's
// loop on that one lane: the same rows, each of which also writes the
// tracer's window index and its cells' direction codes.
//
// Registers, beyond the rows' and SWEEP_LOOP's: Y12 is X; the row maximum
// is reduced across Y7's lanes and folded into Y9 without leaving the
// vector registers. Every extension of a call shares the scorer, gap and X,
// so they are broadcast once. The frame holds the budget, the other lane,
// q and the row's cl + 8 (see SWEEP_LOOP); the assembler saves BP above it.
TEXT ·sweepLinearVec(SB), NOSPLIT, $32-8
	MOVQ         q+0(FP), BX
	MOVQ         BX, 16(SP)
	MOVQ         sweepQueue_rows(BX), AX
	MOVQ         AX, 0(SP)
	MOVQ         (sweepQueue_lanes+8)(BX), AX
	MOVQ         AX, 8(SP)
	MOVQ         sweepQueue_lanes(BX), R13
	VPBROADCASTD (sweepState_sim+rowSim_match)(R13), Y14
	VPBROADCASTD (sweepState_sim+rowSim_mismatch)(R13), Y15
	VPBROADCASTB (sweepState_sim+rowSim_wildcard)(R13), X6
	MOVQ         (sweepState_sim+rowSim_tab)(R13), R10
	VPBROADCASTD sweepState_gap(R13), Y8
	VPBROADCASTD sweepState_x(R13), Y12
	VPBROADCASTD rowNegInf<>(SB), Y10
	SWEEP_LOAD
	CMPB         sweepState_record(R13), $0
	JNE          record
	TESTQ        R10, R10
	JZ           score_eq
	SWEEP_LOOP(SIM_TABLE, ROW_NOMASKS, ROW_NOPUT, SWEEP_NOREC, SWEEP_NOREC, SWEEP_SWAP(st_row), SWEEP_REFILL(st_row, st_drained), spent, st_row, st_window, st_wide, st_wided, st_loop, st_dead, st_tail, st_taildead, st_raise, st_raised, st_rotate, st_clamp, st_clampscan, st_newbest, st_bestscan, st_besttail, st_bestfound, st_rowdead, st_ended)

score_eq:
	SWEEP_LOOP(SIM_EQ, ROW_NOMASKS, ROW_NOPUT, SWEEP_NOREC, SWEEP_NOREC, SWEEP_SWAP(se_row), SWEEP_REFILL(se_row, se_drained), spent, se_row, se_window, se_wide, se_wided, se_loop, se_dead, se_tail, se_taildead, se_raise, se_raised, se_rotate, se_clamp, se_clampscan, se_newbest, se_bestscan, se_besttail, se_bestfound, se_rowdead, se_ended)

record:
	TESTQ R10, R10
	JZ    record_eq
	SWEEP_LOOP(SIM_TABLE, ROW_DIRMASKS, ROW_PUT, SWEEP_RECHEAD, SWEEP_RECTAIL, JMP rt_row, SWEEP_DONE, leave, rt_row, rt_window, rt_wide, rt_wided, rt_loop, rt_dead, rt_tail, rt_taildead, rt_raise, rt_raised, rt_rotate, rt_clamp, rt_clampscan, rt_newbest, rt_bestscan, rt_besttail, rt_bestfound, rt_rowdead, rt_ended)

record_eq:
	SWEEP_LOOP(SIM_EQ, ROW_DIRMASKS, ROW_PUT, SWEEP_RECHEAD, SWEEP_RECTAIL, JMP re_row, SWEEP_DONE, leave, re_row, re_window, re_wide, re_wided, re_loop, re_dead, re_tail, re_taildead, re_raise, re_raised, re_rotate, re_clamp, re_clampscan, re_newbest, re_bestscan, re_besttail, re_bestfound, re_rowdead, re_ended)

leave:
	// Put the lane's extension back, and the lanes and the budget left.
	SWEEP_SAVE
	MOVQ 16(SP), BX
	MOVQ R13, sweepQueue_lanes(BX)
	MOVQ 8(SP), AX
	MOVQ AX, (sweepQueue_lanes+8)(BX)
	JMP  ret

spent:
	// The score kind's budget ran out behind a row of R13's lane. When
	// SWEEP_SWAP would have switched lanes, the other lane's row comes next,
	// so the lanes go back in that order: where the rows of a queue run does
	// not depend on the budget.
	CMPQ  R12, 24(SP)
	JGT   leave
	MOVQ  8(SP), AX
	TESTQ AX, AX
	JZ    leave
	SWEEP_SAVE
	MOVQ  16(SP), BX
	MOVQ  AX, sweepQueue_lanes(BX)
	MOVQ  R13, (sweepQueue_lanes+8)(BX)
	JMP   ret

empty:
	// Both lanes have closed: every extension of the queue is done.
	MOVQ 16(SP), BX
	MOVQ $0, sweepQueue_lanes(BX)
	MOVQ $0, (sweepQueue_lanes+8)(BX)

ret:
	MOVQ 0(SP), AX
	MOVQ AX, sweepQueue_rows(BX)
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
