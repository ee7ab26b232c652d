package cluster

import "sync"

// FreeList is a bounded free list of reusable values: the cluster keeps on
// it what one task leaves for the next, as package mr's map workspaces. Get
// takes a value, nil when the list is empty; Put returns one, dropped when
// the list is full. A FreeList is safe for concurrent use.
type FreeList struct {
	mu   sync.Mutex
	free []any
	max  int
	out  int // values taken and not yet returned
}

// NewFreeList returns a list that keeps at most max values.
func NewFreeList(max int) *FreeList { return &FreeList{max: max} }

// Get takes a value off the list, or returns nil when it is empty. The
// caller returns it with Put when done, whether or not Get found one.
func (l *FreeList) Get() any {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out++
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put returns x, which the caller must not touch afterwards.
func (l *FreeList) Put(x any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out--
	if len(l.free) < l.max {
		l.free = append(l.free, x)
	}
}

// Trim empties the list. The runner calls it when a map phase ends, so
// the values serve the tasks of one phase, as a Hadoop task JVM is reused
// by the tasks of one job, and are not kept through the reduce phase,
// whose memory they are not. While values are out — another job's phase
// is running — it leaves the cut to that job's call.
func (l *FreeList) Trim() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.out > 0 {
		return
	}
	clear(l.free)
	l.free = l.free[:0]
}

// Free returns the number of values the list holds.
func (l *FreeList) Free() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}
