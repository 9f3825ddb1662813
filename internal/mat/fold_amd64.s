#include "textflag.h"

// func foldPanelsAVX(a, b []float32, ay []float64, list []int32, out *[8]float64)
//
// Go assembler operand order is reversed from Intel: VMULPD b, a, dst
// computes dst = a * b. Y0 accumulates panel a's four rows and Y1 panel
// b's; BX walks the list and CX counts the entries left.
TEXT ·foldPanelsAVX(SB), NOSPLIT, $0-104
	MOVQ   a_base+0(FP), SI
	MOVQ   b_base+24(FP), DI
	MOVQ   ay_base+48(FP), DX
	MOVQ   list_base+72(FP), BX
	MOVQ   list_len+80(FP), CX
	MOVQ   out+96(FP), AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	TESTQ  CX, CX
	JZ     done

loop:
	MOVLQSX      (BX), R8         // x
	VBROADCASTSD (DX)(R8*8), Y2   // ay[x] in every lane
	SHLQ         $4, R8           // byte offset of column x in a panel
	VCVTPS2PD    (SI)(R8*1), Y3   // a[4x:4x+4], widened exactly
	VCVTPS2PD    (DI)(R8*1), Y4   // b[4x:4x+4]
	VMULPD       Y2, Y3, Y3
	VMULPD       Y2, Y4, Y4
	VADDPD       Y3, Y0, Y0
	VADDPD       Y4, Y1, Y1
	ADDQ         $4, BX
	DECQ         CX
	JNZ          loop

done:
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VZEROUPPER
	RET
