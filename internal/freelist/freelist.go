// Package freelist is the bounded free list the storage path keeps its
// reusable buffers in. Unlike a sync.Pool a GC does not empty it, so a
// daemon that has been idle, or a tool that attaches again, starts
// warm; and unlike a sync.Pool it holds at most a stated number of
// items, each no larger than its keep rule allows.
package freelist

// List holds up to n items for reuse. Get and Put never wait, and any
// number of goroutines may call them at once. A nil List keeps nothing.
type List[T any] struct {
	c       chan T
	newItem func() T
	keep    func(T) bool
}

// New returns a list that keeps up to n items. Get makes an item with
// newItem when the list is empty; Put keeps only items keep accepts.
// Either may be nil: no newItem makes Get return the zero T, and no
// keep accepts every item.
func New[T any](n int, newItem func() T, keep func(T) bool) *List[T] {
	return &List[T]{c: make(chan T, n), newItem: newItem, keep: keep}
}

// Get takes an item off the list, or makes one if it is empty.
func (l *List[T]) Get() (x T) {
	if l == nil {
		return x
	}
	select {
	case x = <-l.c:
	default:
		if l.newItem != nil {
			x = l.newItem()
		}
	}
	return x
}

// Put returns x to the list. An item keep refuses, or one a full list
// has no room for, is left to the collector.
func (l *List[T]) Put(x T) {
	if l == nil || l.keep != nil && !l.keep(x) {
		return
	}
	select {
	case l.c <- x:
	default:
	}
}

// Len returns the number of items the list holds.
func (l *List[T]) Len() int {
	if l == nil {
		return 0
	}
	return len(l.c)
}
