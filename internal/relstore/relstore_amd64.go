//go:build amd64 && !race

package relstore

// Store32 stores v into *addr with release ordering (relstore_amd64.s).
//
//go:noescape
func Store32(addr *int32, v int32)

// Store64 stores v into *addr with release ordering (relstore_amd64.s).
//
//go:noescape
func Store64(addr *uint64, v uint64)
