#include "textflag.h"

// func getfp() unsafe.Pointer
//
// getfp returns its caller's frame pointer. It has no frame of its own,
// so R29 still holds the caller's.
TEXT ·getfp(SB), NOSPLIT|NOFRAME, $0-8
	MOVD R29, ret+0(FP)
	RET
