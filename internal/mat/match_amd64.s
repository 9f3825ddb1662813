#include "textflag.h"

// func matchCountsAVX2(dst []int32, ldd int, a, b []uint64, m, n, d int)
//
// Go assembler operand order is reversed from Intel: VPCMPEQW b, a, dst
// sets dst's lanes where a == b. SI walks the rows of a and DI the rows of
// dst; per row, BX walks the rows of b, CX is j and R8 the byte offset
// into the two rows. AX sums the mask bits of equal lanes, two per lane,
// so a pair's count is AX/2 minus the padding lanes, which always match.
TEXT ·matchCountsAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ ldd+24(FP), R9
	SHLQ $2, R9              // dst row stride in bytes
	MOVQ a_base+32(FP), SI
	MOVQ m+80(FP), R10
	MOVQ n+88(FP), R11
	MOVQ d+96(FP), AX
	LEAQ 3(AX), R12
	SHRQ $2, R12             // words = PackedWords(d)
	MOVQ R12, R14
	SHLQ $2, R14
	SUBQ AX, R14             // pad = 4·words − d
	SHLQ $3, R12             // row length in bytes
	MOVQ R12, R13
	ANDQ $-32, R13           // bytes covered by whole 32-byte chunks
	TESTQ R10, R10
	JZ    done
	TESTQ R11, R11
	JZ    done

row:
	MOVQ b_base+56(FP), BX
	XORQ CX, CX

col:
	XORL AX, AX
	XORQ R8, R8
	TESTQ R13, R13
	JZ    tail16

chunk:
	VMOVDQU   (SI)(R8*1), Y0
	VPCMPEQW  (BX)(R8*1), Y0, Y0
	VPMOVMSKB Y0, DX
	POPCNTL   DX, DX
	ADDL      DX, AX
	ADDQ      $32, R8
	CMPQ      R8, R13
	JNE       chunk

tail16:
	TESTQ     $16, R12
	JZ        tail8
	VMOVDQU   (SI)(R8*1), X0
	VPCMPEQW  (BX)(R8*1), X0, X0
	VPMOVMSKB X0, DX
	POPCNTL   DX, DX
	ADDL      DX, AX
	ADDQ      $16, R8

tail8:
	TESTQ     $8, R12
	JZ        store
	VMOVQ     (SI)(R8*1), X0
	VMOVQ     (BX)(R8*1), X1
	VPCMPEQW  X1, X0, X0
	VPMOVMSKB X0, DX
	ANDL      $0xff, DX      // the zeroed upper 8 bytes always match
	POPCNTL   DX, DX
	ADDL      DX, AX

store:
	SHRL $1, AX
	SUBL R14, AX
	MOVL AX, (DI)(CX*4)
	ADDQ R12, BX
	INCQ CX
	CMPQ CX, R11
	JNE  col
	ADDQ R12, SI
	ADDQ R9, DI
	DECQ R10
	JNZ  row

done:
	VZEROUPPER
	RET
