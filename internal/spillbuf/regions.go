package spillbuf

import "mrtext/internal/kvio"

// RegionsPerBuffer is how many regions one buffer has out at a time: the
// one being filled and the one in flight.
const RegionsPerBuffer = 2

// Regions is the pair of slots a buffer borrows its regions from and puts
// them back into, on every way out. Whoever keeps a Regions past the
// buffer — a map slot's workspace — keeps the regions' grown capacity for
// the next buffer on it. The buffer touches the slots only under its
// mutex; a Regions must not be lent to two buffers at once.
type Regions [RegionsPerBuffer]kvio.Region

// take empties a slot that holds a region and returns the region, or an
// empty region when both slots are empty.
func (h *Regions) take() kvio.Region {
	for i := range h {
		if cap(h[i].Arena) > 0 {
			r := h[i]
			h[i] = kvio.Region{}
			return r
		}
	}
	return kvio.Region{}
}

// put empties r into an empty slot. A region that never grew is not kept.
// The caller must not touch r afterwards.
func (h *Regions) put(r kvio.Region) {
	if cap(r.Arena) == 0 {
		return
	}
	r.Reset()
	h.checkReturn(r)
	for i := range h {
		if cap(h[i].Arena) == 0 {
			h[i] = r
			return
		}
	}
}
