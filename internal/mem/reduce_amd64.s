//go:build !race

#include "textflag.h"

// PACKED reduces dst = a op b over the first CX bytes at DI (dst), SI (a)
// and DX (b) and leaves in AX how many bytes it covered: CX rounded down
// to a multiple of 16. OP is the packed SSE2 instruction; a is its first
// source, the register it writes, so it sees the operands in the generic
// loop's order. MOV is the unaligned 16-byte load and store of OP's
// domain. The main loop takes 64 bytes a pass and starts on a 32-byte
// boundary (functions start on one), so its speed does not depend on
// where the linker puts the function; a 16-byte loop takes what is left.
#define PACKED(MOV, OP) \
	XORQ AX, AX; \
	MOVQ CX, BX; \
	ANDQ $-64, BX; \
	JZ   tail; \
	PCALIGN $32; \
loop64: \
	MOV  (SI)(AX*1), X0; \
	MOV  16(SI)(AX*1), X1; \
	MOV  32(SI)(AX*1), X2; \
	MOV  48(SI)(AX*1), X3; \
	MOV  (DX)(AX*1), X4; \
	MOV  16(DX)(AX*1), X5; \
	MOV  32(DX)(AX*1), X6; \
	MOV  48(DX)(AX*1), X7; \
	OP   X4, X0; \
	OP   X5, X1; \
	OP   X6, X2; \
	OP   X7, X3; \
	MOV  X0, (DI)(AX*1); \
	MOV  X1, 16(DI)(AX*1); \
	MOV  X2, 32(DI)(AX*1); \
	MOV  X3, 48(DI)(AX*1); \
	ADDQ $64, AX; \
	CMPQ AX, BX; \
	JB   loop64; \
tail: \
	ANDQ $-16, CX; \
loop16: \
	CMPQ AX, CX; \
	JAE  done; \
	MOV  (SI)(AX*1), X0; \
	MOV  (DX)(AX*1), X4; \
	OP   X4, X0; \
	MOV  X0, (DI)(AX*1); \
	ADDQ $16, AX; \
	JMP  loop16; \
done:

// func addps(dst, a, b *byte, n int) int
TEXT ·addps(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	PACKED(MOVUPS, ADDPS)
	MOVQ AX, ret+32(FP)
	RET

// func addpd(dst, a, b *byte, n int) int
TEXT ·addpd(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	PACKED(MOVUPD, ADDPD)
	MOVQ AX, ret+32(FP)
	RET
