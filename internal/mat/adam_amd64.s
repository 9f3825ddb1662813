#include "go_asm.h"
#include "textflag.h"

// func adamAVX(w, m, v, g []float64, k *AdamStep)
//
// Go assembler operand order is reversed from Intel: VMULPD b, a, dst
// computes dst = a * b. Y7–Y15 hold the broadcast coefficients; CX counts
// 4-element chunks and R8 is their byte offset.
TEXT ·adamAVX(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ m_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ g_base+72(FP), BX
	MOVQ k+96(FP), AX
	VBROADCASTSD AdamStep_L2(AX), Y7
	VBROADCASTSD AdamStep_Beta1(AX), Y8
	VBROADCASTSD AdamStep_OneMinusBeta1(AX), Y9
	VBROADCASTSD AdamStep_Beta2(AX), Y10
	VBROADCASTSD AdamStep_OneMinusBeta2(AX), Y11
	VBROADCASTSD AdamStep_LR(AX), Y12
	VBROADCASTSD AdamStep_C1(AX), Y13
	VBROADCASTSD AdamStep_C2(AX), Y14
	VBROADCASTSD AdamStep_Eps(AX), Y15
	SHRQ $2, CX
	JZ   done
	XORQ R8, R8

loop:
	VMOVUPD (DI)(R8*1), Y0     // w
	VMULPD  Y7, Y0, Y1         // w*L2
	VADDPD  (BX)(R8*1), Y1, Y2 // gi = w*L2 + g
	VMOVUPD (SI)(R8*1), Y3     // m
	VMULPD  Y8, Y3, Y3         // m*Beta1
	VMULPD  Y9, Y2, Y4         // gi*OneMinusBeta1
	VADDPD  Y3, Y4, Y3         // m = gi*OneMinusBeta1 + m*Beta1
	VMOVUPD Y3, (SI)(R8*1)
	VMOVUPD (DX)(R8*1), Y4     // v
	VMULPD  Y10, Y4, Y4        // v*Beta2
	VMULPD  Y11, Y2, Y5        // gi*OneMinusBeta2
	VMULPD  Y5, Y2, Y5         // gi*(gi*OneMinusBeta2)
	VADDPD  Y4, Y5, Y4         // v = gi*(gi*OneMinusBeta2) + v*Beta2
	VMOVUPD Y4, (DX)(R8*1)
	VDIVPD  Y13, Y3, Y3        // m/C1
	VMULPD  Y12, Y3, Y3        // (m/C1)*LR
	VDIVPD  Y14, Y4, Y4        // v/C2
	VSQRTPD Y4, Y4             // sqrt(v/C2)
	VADDPD  Y15, Y4, Y4        // sqrt(v/C2) + Eps
	VDIVPD  Y4, Y3, Y3         // (m/C1)*LR / (sqrt(v/C2) + Eps)
	VSUBPD  Y3, Y0, Y0         // w - step
	VMOVUPD Y0, (DI)(R8*1)
	ADDQ    $32, R8
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
