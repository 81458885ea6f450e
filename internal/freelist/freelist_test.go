package freelist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetEmpty(t *testing.T) {
	made := 0
	l := New(2, func() *int { made++; return new(int) }, nil)
	if p := l.Get(); p == nil || made != 1 {
		t.Fatalf("Get on an empty list with newItem = %v after %d made, want a new item", p, made)
	}
	if p := New[*int](2, nil, nil).Get(); p != nil {
		t.Fatalf("Get on an empty list without newItem = %v, want nil", p)
	}
}

func TestPutReuses(t *testing.T) {
	l := New[*int](2, nil, nil)
	p := new(int)
	l.Put(p)
	if l.Len() != 1 {
		t.Fatalf("Len = %d after one Put, want 1", l.Len())
	}
	if q := l.Get(); q != p || l.Len() != 0 {
		t.Fatalf("Get = %p with %d left, want the item put, %p, and none left", q, l.Len(), p)
	}
}

func TestKeepRefuses(t *testing.T) {
	l := New(4, nil, func(b []byte) bool { return cap(b) <= 8 })
	l.Put(make([]byte, 16))
	if l.Len() != 0 {
		t.Fatal("the list kept an item keep refused")
	}
	l.Put(make([]byte, 8))
	if l.Len() != 1 {
		t.Fatal("the list dropped an item keep accepted")
	}
}

func TestPutFull(t *testing.T) {
	l := New[*int](3, nil, nil)
	for i := 0; i < 5; i++ {
		l.Put(new(int))
	}
	if l.Len() != 3 {
		t.Fatalf("a list of 3 holds %d items after 5 Puts", l.Len())
	}
}

func TestNilList(t *testing.T) {
	var l *List[*int]
	l.Put(new(int))
	if p, n := l.Get(), l.Len(); p != nil || n != 0 {
		t.Fatalf("a nil list gave %v and holds %d, want nil and 0", p, n)
	}
}

// TestConcurrentOwnership: eight goroutines take and return items at
// once; each item's owner flag, claimed by CAS after Get and cleared
// before Put, shows that no item is ever handed to two of them.
func TestConcurrentOwnership(t *testing.T) {
	type item struct{ owner atomic.Int32 }
	l := New(4, func() *item { return new(item) }, nil)
	var wg sync.WaitGroup
	for g := int32(1); g <= 8; g++ {
		wg.Add(1)
		go func(g int32) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				it := l.Get()
				if !it.owner.CompareAndSwap(0, g) {
					t.Errorf("goroutine %d got an item goroutine %d holds", g, it.owner.Load())
					return
				}
				if i%16 == 0 {
					runtime.Gosched() // hold it while others Get
				}
				if o := it.owner.Load(); o != g {
					t.Errorf("goroutine %d's item was claimed by goroutine %d", g, o)
					return
				}
				it.owner.Store(0)
				l.Put(it)
			}
		}(g)
	}
	wg.Wait()
	if l.Len() > 4 {
		t.Fatalf("a list of 4 holds %d items", l.Len())
	}
}
