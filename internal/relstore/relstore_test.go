package relstore

import (
	"sync/atomic"
	"testing"
)

// TestStorePublishes is the single-writer publish the trace buffers
// make: the writer fills a slot, then stores the count that covers it;
// a reader that loads a count must see every slot below it filled.
func TestStorePublishes(t *testing.T) {
	const n = 1 << 16
	var (
		a, b [n]uint64
		na   int32
		nb   uint64
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			a[i] = uint64(i) + 1
			Store32(&na, int32(i)+1)
			b[i] = uint64(i) + 1
			Store64(&nb, uint64(i)+1)
		}
	}()
	for seen := 0; seen < n; {
		k := int(atomic.LoadInt32(&na))
		if k < seen {
			t.Fatalf("count went back from %d to %d", seen, k)
		}
		for ; seen < k; seen++ {
			if a[seen] != uint64(seen)+1 {
				t.Fatalf("slot %d reads %d under count %d", seen, a[seen], k)
			}
		}
		if m := atomic.LoadUint64(&nb); m > 0 && b[m-1] != m {
			t.Fatalf("slot %d reads %d under count %d", m-1, b[m-1], m)
		}
	}
	<-done
}
