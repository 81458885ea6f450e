package dl

import (
	"sync"
	"testing"
)

func TestRegisterLookupUnregister(t *testing.T) {
	const name = "test_symbol_a"
	if _, ok := Lookup(name); ok {
		t.Fatal("symbol present before registration")
	}
	if err := Register(name, 42); err != nil {
		t.Fatal(err)
	}
	v, ok := Lookup(name)
	if !ok || v.(int) != 42 {
		t.Errorf("lookup = (%v, %v)", v, ok)
	}
	if err := Register(name, 43); err == nil {
		t.Error("duplicate registration succeeded")
	}
	Unregister(name)
	if _, ok := Lookup(name); ok {
		t.Error("symbol present after unregistration")
	}
	Unregister(name) // idempotent
}

func TestRegisterNil(t *testing.T) {
	if err := Register("test_nil", nil); err == nil {
		t.Error("nil symbol accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := "test_conc"
			for i := 0; i < 200; i++ {
				Register(name, g) // may fail when another holds it; fine
				Lookup(name)
				Unregister(name)
			}
		}(g)
	}
	wg.Wait()
	Unregister("test_conc")
}
