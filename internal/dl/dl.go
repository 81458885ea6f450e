// Package dl simulates the dynamic-linker symbol lookup the OpenMP
// Collector API specification relies on. In the paper's system the
// OpenMP runtime library exports the symbol __omp_collector_api, and a
// collector tool queries the dynamic linker (dlsym) to discover whether
// the runtime in the target address space supports the interface. Go
// programs are statically linked and have no dlsym, so this package
// provides a process-local symbol table with the same discovery
// contract: providers register named symbols, tools look them up and
// must tolerate absence.
package dl

import (
	"fmt"
	"sync"
)

var (
	mu      sync.RWMutex
	symbols = make(map[string]any)
)

// Register exports a symbol under the given name, like a shared library
// exporting a function. Registering a name twice is an error: a process
// cannot hold two conflicting definitions of __omp_collector_api.
func Register(name string, value any) error {
	if value == nil {
		return fmt.Errorf("dl: refusing to register nil symbol %q", name)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := symbols[name]; dup {
		return fmt.Errorf("dl: symbol %q already registered", name)
	}
	symbols[name] = value
	return nil
}

// Unregister removes a symbol, as when a library is unloaded. It is a
// no-op if the symbol is absent.
func Unregister(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(symbols, name)
}

// Lookup returns the symbol registered under name. The boolean result
// follows the dlsym contract: a collector must check it and degrade
// gracefully when the runtime does not implement the interface.
func Lookup(name string) (any, bool) {
	mu.RLock()
	defer mu.RUnlock()
	v, ok := symbols[name]
	return v, ok
}
