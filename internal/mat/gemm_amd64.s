#include "textflag.h"

// func gemmAVX(c []float64, ldc int, a []float64, sI, sK int, b []float64, ldb int, m, n, k int)
//
// C[i, j] += Σ_kk A(i, kk)·B[kk, j] over columns [0, n&^3), A(i, kk) at
// a[i·sI + kk·sK]. Go assembler operand order is reversed from Intel:
// VMULPD b, a, dst computes dst = a * b. Per row, Y0–Y3 hold a 16-column
// tile of C for the whole ascending kk walk, then Y0 holds each 4-column
// tile; every kk adds the broadcast A(i, kk) times the B row, a multiply then
// an add. DI and SI point at row i of C and A, BX is the tile's byte offset
// in a row, R12 counts the columns left, AX walks A(i, ·) and R13 B[·, j].
TEXT ·gemmAVX(SB), NOSPLIT, $0-128
	MOVQ  c_base+0(FP), DI
	MOVQ  ldc+24(FP), R8
	SHLQ  $3, R8
	MOVQ  a_base+32(FP), SI
	MOVQ  sK+64(FP), R9
	SHLQ  $3, R9
	MOVQ  b_base+72(FP), DX
	MOVQ  ldb+96(FP), R10
	SHLQ  $3, R10
	MOVQ  m+104(FP), R11
	TESTQ R11, R11
	JZ    done

row:
	XORQ BX, BX
	MOVQ n+112(FP), R12

tile16:
	CMPQ    R12, $16
	JLT     tile4
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3
	MOVQ    SI, AX
	LEAQ    (DX)(BX*1), R13
	MOVQ    k+120(FP), CX
	TESTQ   CX, CX
	JZ      store16

k16:
	VBROADCASTSD (AX), Y4
	VMULPD       (R13), Y4, Y5
	VMULPD       32(R13), Y4, Y6
	VMULPD       64(R13), Y4, Y7
	VMULPD       96(R13), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         R9, AX
	ADDQ         R10, R13
	DECQ         CX
	JNZ          k16

store16:
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	SUBQ    $16, R12
	JMP     tile16

tile4:
	CMPQ    R12, $4
	JLT     nextrow
	VMOVUPD (DI)(BX*1), Y0
	MOVQ    SI, AX
	LEAQ    (DX)(BX*1), R13
	MOVQ    k+120(FP), CX
	TESTQ   CX, CX
	JZ      store4

k4:
	VBROADCASTSD (AX), Y4
	VMULPD       (R13), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         R9, AX
	ADDQ         R10, R13
	DECQ         CX
	JNZ          k4

store4:
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	SUBQ    $4, R12
	JMP     tile4

nextrow:
	ADDQ R8, DI
	MOVQ sI+56(FP), CX
	SHLQ $3, CX
	ADDQ CX, SI
	DECQ R11
	JNZ  row

done:
	VZEROUPPER
	RET

// func spGemmOneHotAVX(c []float64, ldc int, idx []int32, ldi int, w []float64, ldw int, m, d, h int, bias []float64)
//
// Row i of C over columns [0, h&^3) is bias plus the W rows named by
// idx[i·ldi : i·ldi+d], added in column order. Per row, Y0–Y3 hold a
// 16-column tile from the bias through every named row, then Y0 holds each
// 4-column tile. DI and SI point at row i of C and idx, BX is the tile's
// byte offset in a row, R11 counts the columns left, AX walks the index row
// and R12 points at the named W row.
TEXT ·spGemmOneHotAVX(SB), NOSPLIT, $0-144
	MOVQ  c_base+0(FP), DI
	MOVQ  ldc+24(FP), R13
	SHLQ  $3, R13
	MOVQ  idx_base+32(FP), SI
	MOVQ  w_base+64(FP), DX
	MOVQ  ldw+88(FP), R8
	SHLQ  $3, R8
	MOVQ  bias_base+120(FP), R9
	MOVQ  m+96(FP), R10
	TESTQ R10, R10
	JZ    ohdone

ohrow:
	XORQ BX, BX
	MOVQ h+112(FP), R11

oh16:
	CMPQ    R11, $16
	JLT     oh4
	VMOVUPD (R9)(BX*1), Y0
	VMOVUPD 32(R9)(BX*1), Y1
	VMOVUPD 64(R9)(BX*1), Y2
	VMOVUPD 96(R9)(BX*1), Y3
	MOVQ    SI, AX
	MOVQ    d+104(FP), CX
	TESTQ   CX, CX
	JZ      ohstore16

ohk16:
	MOVLQSX (AX), R12
	IMULQ   R8, R12
	ADDQ    DX, R12
	VADDPD  (R12)(BX*1), Y0, Y0
	VADDPD  32(R12)(BX*1), Y1, Y1
	VADDPD  64(R12)(BX*1), Y2, Y2
	VADDPD  96(R12)(BX*1), Y3, Y3
	ADDQ    $4, AX
	DECQ    CX
	JNZ     ohk16

ohstore16:
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	ADDQ    $128, BX
	SUBQ    $16, R11
	JMP     oh16

oh4:
	CMPQ    R11, $4
	JLT     ohnext
	VMOVUPD (R9)(BX*1), Y0
	MOVQ    SI, AX
	MOVQ    d+104(FP), CX
	TESTQ   CX, CX
	JZ      ohstore4

ohk4:
	MOVLQSX (AX), R12
	IMULQ   R8, R12
	ADDQ    DX, R12
	VADDPD  (R12)(BX*1), Y0, Y0
	ADDQ    $4, AX
	DECQ    CX
	JNZ     ohk4

ohstore4:
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	SUBQ    $4, R11
	JMP     oh4

ohnext:
	ADDQ R13, DI
	MOVQ ldi+56(FP), CX
	SHLQ $2, CX
	ADDQ CX, SI
	DECQ R10
	JNZ  ohrow

ohdone:
	VZEROUPPER
	RET
