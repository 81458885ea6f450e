//go:build amd64 && !race

#include "textflag.h"

// Under x86-TSO a plain store is not reordered with earlier loads or
// stores, so one MOV is a release store.

// func Store32(addr *int32, v int32)
TEXT ·Store32(SB), NOSPLIT|NOFRAME, $0-12
	MOVQ addr+0(FP), AX
	MOVL v+8(FP), BX
	MOVL BX, (AX)
	RET

// func Store64(addr *uint64, v uint64)
TEXT ·Store64(SB), NOSPLIT|NOFRAME, $0-16
	MOVQ addr+0(FP), AX
	MOVQ v+8(FP), BX
	MOVQ BX, (AX)
	RET
