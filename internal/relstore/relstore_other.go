//go:build !amd64 || race

package relstore

import "sync/atomic"

// Store32 stores v into *addr with at least release ordering.
func Store32(addr *int32, v int32) { atomic.StoreInt32(addr, v) }

// Store64 stores v into *addr with at least release ordering.
func Store64(addr *uint64, v uint64) { atomic.StoreUint64(addr, v) }
