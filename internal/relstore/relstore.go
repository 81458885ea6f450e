// Package relstore publishes a word that only one goroutine writes
// with a release store: every write the storing goroutine made before
// it is visible to a reader whose atomic load observes the value.
// Readers keep using sync/atomic's loads.
//
// sync/atomic's Store is sequentially consistent. On amd64 that is an
// XCHG, a full fence that drains the store buffer on every call, while
// x86-TSO already makes a plain MOV a release store. A single writer
// needs no more than release: it publishes what it wrote and orders
// nothing it later loads. So on amd64 Store32 and Store64 are one MOV
// in assembly; the compiler does not move a memory operation across a
// call to an assembly function. Under the race detector, and on every
// other architecture, they are sync/atomic's Store, so the detector
// still sees the synchronization.
package relstore
