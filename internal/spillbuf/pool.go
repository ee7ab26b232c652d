package spillbuf

import (
	"sync"

	"mrtext/internal/kvio"
)

// RegionsPerBuffer is how many regions one buffer has out of its pool at
// a time: the one being filled and the one in flight.
const RegionsPerBuffer = 2

// Pool is a bounded free list of regions. A buffer takes the regions it
// fills from its pool and returns each when the spill is released, so
// whoever shares a pool over time — the map tasks that follow each other
// on a cluster's slots — shares the regions' grown capacity. A pool is
// safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free []kvio.Region
	max  int
	out  int // regions taken and not yet returned
	// users is the number of buffers attached and not yet done, served the
	// number attached since the free list was last cut, and held the number
	// of regions the cut left that no buffer has started on yet.
	users, served, held int
}

// NewPool returns a pool that keeps at most max free regions and leaves
// the rest to the garbage collector.
func NewPool(max int) *Pool { return &Pool{max: max} }

// attach counts one more buffer using the pool and returns the region it
// starts on, detach counts one fewer.
func (p *Pool) attach() kvio.Region {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.users++
	p.served++
	p.held = max(p.held-1, 0)
	return p.popLocked()
}

func (p *Pool) detach() {
	p.mu.Lock()
	p.users--
	p.mu.Unlock()
}

// get takes a further region out of the pool for an attached buffer.
func (p *Pool) get() kvio.Region {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.popLocked()
}

// popLocked takes a recycled region if there is one, else an empty one
// that grows as it is filled. The regions the last Trim left are held for
// buffers to start on: a task that starts late must not find that an early
// one's second region was the one kept for it. The caller holds p.mu.
func (p *Pool) popLocked() kvio.Region {
	p.out++
	n := len(p.free)
	if n <= p.held {
		return kvio.Region{}
	}
	r := p.free[n-1]
	p.free[n-1] = kvio.Region{}
	p.free = p.free[:n-1]
	return r
}

// put returns a region taken with attach or get. The caller must not touch
// it afterwards.
func (p *Pool) put(r kvio.Region) {
	r.Reset()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out--
	p.checkReturn(r)
	if len(p.free) < p.max && cap(r.Arena) > 0 {
		p.free = append(p.free, r)
	}
}

// Trim cuts the free list down to one region for every buffer the pool has
// served since the previous cut, and to half its bound at most: one region
// per map task, at most one per slot — the region a task starts to fill
// (it makes its second as a twin of that one). The runner calls it when a
// map phase ends; while another job's buffers are still attached it leaves
// the cut to that job's call. Within a phase the tasks that follow each
// other on a slot recycle every region; through the reduce phase, whose
// memory the regions are not, and into the next job, half of what the
// phase needed stays and what it did not need goes.
func (p *Pool) Trim() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.users > 0 {
		return
	}
	if keep := min(p.served, p.max/RegionsPerBuffer); len(p.free) > keep {
		clear(p.free[keep:])
		p.free = p.free[:keep]
	}
	p.served, p.held = 0, len(p.free)
}

// Free returns the number of regions the pool holds for reuse, and Out
// the number taken from it and not yet returned.
func (p *Pool) Free() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Out: see Free.
func (p *Pool) Out() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out
}
