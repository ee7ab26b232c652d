package cluster

import "sync"

// FreeList is a bounded free list of reusable values: the cluster keeps on
// it what one task leaves for the next, as package mr's map workspaces. Get
// takes a value, nil when the list is empty; Put returns one, dropped when
// the list is full. A FreeList is safe for concurrent use.
type FreeList struct {
	mu    sync.Mutex
	free  []any
	max   int
	out   int // values taken and not yet returned
	taken int // Get calls since the last cut
}

// NewFreeList returns a list that keeps at most max values.
func NewFreeList(max int) *FreeList { return &FreeList{max: max} }

// Get takes a value off the list, or returns nil when it is empty. The
// caller returns it with Put when done, whether or not Get found one.
func (l *FreeList) Get() any {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.out++
	l.taken++
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

// Trim cuts the list down to one value per Get since the last cut, each
// cut down by shrink, which reports whether anything worth keeping is
// left. The runner calls it when a map phase ends, so what the values
// hold serves the tasks of one phase, as a Hadoop task JVM is reused by
// the tasks of one job, and only what shrink leaves, for as many tasks as
// the phase ran, stays through the reduce phase, whose memory it is not.
// While values are out — another job's phase is running — it leaves the
// cut to that job's call, and with nothing taken since the last cut the
// list is as that cut left it: two jobs whose map phases end together
// both call it, and the second must not empty what the first kept.
func (l *FreeList) Trim(shrink func(any) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.out > 0 || l.taken == 0 {
		return
	}
	kept := l.free[:0]
	for _, x := range l.free {
		if len(kept) < l.taken && shrink(x) {
			kept = append(kept, x)
		}
	}
	clear(l.free[len(kept):])
	l.free, l.taken = kept, 0
}

// Free returns the number of values the list holds, and Out the number
// taken from it and not yet returned.
func (l *FreeList) Free() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

// Out: see Free.
func (l *FreeList) Out() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.out
}
