// Package a seeds lockcheck violations: fields accessed both under and
// outside their guarding mutex.
package a

import "sync"

// counter mimics the spill buffer's shape: a mutex, mutable state written
// under it, and immutable config set at construction time.
type counter struct {
	mu  sync.Mutex
	n   int // guarded: written under mu in Inc
	cap int // config: never written in any method
}

func (c *counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c *counter) Snapshot() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n // ok: lock held
}

func (c *counter) Racy() int {
	return c.n // want `counter.Racy reads field n without holding the mutex`
}

func (c *counter) RacyWrite() {
	c.n = 0 // want `counter.RacyWrite writes field n without holding the mutex`
}

func (c *counter) Cap() int {
	return c.cap // ok: cap is never written under the lock
}

// bumpLocked is a caller-holds-the-mutex helper: the Locked suffix is the
// repository convention, so its guarded accesses are under the lock by
// contract and must not be flagged.
func (c *counter) bumpLocked(by int) {
	c.n += by // ok: *Locked methods hold the mutex by contract
}

func (c *counter) AddTwo() {
	c.mu.Lock()
	c.bumpLocked(2)
	c.mu.Unlock()
}

// waiter locks through a sync.Cond, like the spill buffer's consumer.
type waiter struct {
	mu   sync.Mutex
	cond *sync.Cond
	v    int
}

func (w *waiter) Produce() {
	w.mu.Lock()
	w.v++
	w.mu.Unlock()
}

func (w *waiter) Consume() int {
	w.cond.Wait() // holds w.mu by the sync.Cond contract
	return w.v    // ok: Wait marks the method as locking
}
