// Package topk implements the frequent-key estimation machinery behind
// frequency-buffering (§III-B of the paper).
//
// The central type is StreamSummary, the Space-Saving algorithm of
// Metwally, Agrawal and El Abbadi that the paper adopts for its profiling
// stage: a fixed-capacity summary where each monitored key carries an
// estimated count and a maximum overestimation error, and where a new key
// displaces the currently least-frequent one, inheriting its count plus
// one — the "slightly higher than the lowest frequency" insertion the paper
// describes to avoid thrashing.
//
// The package also provides the two comparison predictors evaluated in
// Fig. 7: Exact (the "Ideal" oracle with perfect knowledge of the key
// distribution) and LRU (a buffer that admits every key and evicts the
// least recently used).
package topk

import (
	"container/list"
	"sort"
)

// Counted is a key with its estimated count. Err bounds the overestimation:
// the true count lies in [Count-Err, Count].
type Counted struct {
	Key   string
	Count uint64
	Err   uint64
}

// bucket groups all monitored keys sharing one estimated count. Buckets
// live on a doubly-linked list in ascending count order, giving O(1)
// minimum lookup and O(1) count increments, as in the original
// stream-summary data structure. Both lists are intrusive, and a bucket
// that empties is kept for the next one the summary needs, so counting a
// monitored key allocates nothing.
type bucket struct {
	count      uint64
	head, tail *ssItem // the bucket's keys, oldest first
	prev, next *bucket
}

// ssItem is one monitored key.
type ssItem struct {
	key        string
	err        uint64
	bucket     *bucket
	prev, next *ssItem
}

// StreamSummary is the Space-Saving top-k summary. It is not safe for
// concurrent use; in the runtime each map task profiles with its own
// summary.
type StreamSummary struct {
	capacity int
	items    map[string]*ssItem
	min, max *bucket // the bucket list's ends
	spare    *bucket // emptied buckets, linked through next
	observed uint64
}

// NewStreamSummary returns a summary monitoring at most capacity keys.
// Capacity must be positive.
func NewStreamSummary(capacity int) *StreamSummary {
	if capacity <= 0 {
		capacity = 1
	}
	return &StreamSummary{
		capacity: capacity,
		items:    make(map[string]*ssItem, capacity),
	}
}

// Capacity returns the maximum number of monitored keys.
func (s *StreamSummary) Capacity() int { return s.capacity }

// Len returns the number of currently monitored keys.
func (s *StreamSummary) Len() int { return len(s.items) }

// Observed returns the total number of Offer calls.
func (s *StreamSummary) Observed() uint64 { return s.observed }

// Offer records one occurrence of key.
func (s *StreamSummary) Offer(key string) {
	s.observed++
	if it, ok := s.items[key]; ok {
		s.increment(it)
		return
	}
	s.add(key)
}

// OfferBytes is Offer for a key held in bytes: it looks the key up without
// converting it and copies it only when it starts monitoring it.
func (s *StreamSummary) OfferBytes(key []byte) {
	s.observed++
	if it, ok := s.items[string(key)]; ok {
		s.increment(it)
		return
	}
	s.add(string(key))
}

// add starts monitoring key, which is not monitored, for one occurrence.
// With the summary full, the minimum-count key is evicted and the newcomer
// inherits min+1 with error min, exactly Space-Saving's replacement rule;
// it takes over the victim's item.
func (s *StreamSummary) add(key string) {
	if len(s.items) < s.capacity {
		s.insert(&ssItem{key: key}, 1)
		return
	}
	minBkt := s.min
	victim := minBkt.head
	delete(s.items, victim.key)
	s.unlink(victim)
	minCount := minBkt.count
	if minBkt.head == nil {
		s.drop(minBkt)
	}
	victim.key, victim.err = key, minCount
	s.insert(victim, minCount+1)
}

// OfferN records n occurrences of key (a convenience for weighted feeds).
func (s *StreamSummary) OfferN(key string, n uint64) {
	for i := uint64(0); i < n; i++ {
		s.Offer(key)
	}
}

// insert files it, a key not on any bucket, under the given count,
// finding or making the bucket by scanning from the minimum (inserts
// happen at or near it).
func (s *StreamSummary) insert(it *ssItem, count uint64) {
	s.items[it.key] = it
	b := s.min
	for b != nil && b.count < count {
		b = b.next
	}
	s.push(it, s.bucketBefore(b, count))
}

// increment moves it up one count, relocating it to the right bucket.
func (s *StreamSummary) increment(it *ssItem) {
	cur := it.bucket
	newCount := cur.count + 1
	s.unlink(it)
	b := cur.next
	if cur.head == nil {
		s.drop(cur)
	}
	for b != nil && b.count < newCount {
		b = b.next
	}
	s.push(it, s.bucketBefore(b, newCount))
}

// bucketBefore returns b when it holds count, else a bucket for count
// linked in before b (at the end for nil b).
func (s *StreamSummary) bucketBefore(b *bucket, count uint64) *bucket {
	if b != nil && b.count == count {
		return b
	}
	nb := s.spare
	if nb != nil {
		s.spare = nb.next
		*nb = bucket{}
	} else {
		nb = new(bucket)
	}
	nb.count, nb.next = count, b
	if b == nil {
		nb.prev, s.max = s.max, nb
	} else {
		nb.prev, b.prev = b.prev, nb
	}
	if nb.prev == nil {
		s.min = nb
	} else {
		nb.prev.next = nb
	}
	return nb
}

// drop unlinks b, now empty, from the bucket list and keeps it as a spare.
func (s *StreamSummary) drop(b *bucket) {
	if b.prev == nil {
		s.min = b.next
	} else {
		b.prev.next = b.next
	}
	if b.next == nil {
		s.max = b.prev
	} else {
		b.next.prev = b.prev
	}
	*b = bucket{next: s.spare}
	s.spare = b
}

// push appends it to b's keys.
func (s *StreamSummary) push(it *ssItem, b *bucket) {
	it.bucket, it.prev, it.next = b, b.tail, nil
	if b.tail == nil {
		b.head = it
	} else {
		b.tail.next = it
	}
	b.tail = it
}

// unlink takes it off its bucket's keys, leaving the bucket in place even
// when it empties: the caller drops it.
func (s *StreamSummary) unlink(it *ssItem) {
	b := it.bucket
	if it.prev == nil {
		b.head = it.next
	} else {
		it.prev.next = it.next
	}
	if it.next == nil {
		b.tail = it.prev
	} else {
		it.next.prev = it.prev
	}
	it.bucket, it.prev, it.next = nil, nil, nil
}

// Count returns the estimated count and error bound for key, or ok=false if
// the key is not monitored.
func (s *StreamSummary) Count(key string) (count, errBound uint64, ok bool) {
	it, found := s.items[key]
	if !found {
		return 0, 0, false
	}
	return it.bucket.count, it.err, true
}

// Top returns up to k monitored keys in descending estimated count. Ties
// break lexicographically for determinism.
func (s *StreamSummary) Top(k int) []Counted {
	all := make([]Counted, 0, len(s.items))
	for b := s.max; b != nil; b = b.prev {
		for it := b.head; it != nil; it = it.next {
			all = append(all, Counted{Key: it.key, Count: b.count, Err: it.err})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// GuaranteedTop reports whether the i-th entry of Top is guaranteed to be a
// true top-i key (its count minus error still exceeds the (i+1)-th count),
// following the guarantee analysis in the Space-Saving paper.
func (s *StreamSummary) GuaranteedTop(k int) bool {
	top := s.Top(k + 1)
	if len(top) <= k {
		return true // fewer distinct keys than k: everything is exact enough
	}
	next := top[k].Count
	for i := 0; i < k; i++ {
		if top[i].Count-top[i].Err < next {
			return false
		}
	}
	return true
}

// Exact counts every key exactly; its Top is the true top-k. It models the
// "Ideal" predictor of Fig. 7 and is also used by tests as ground truth.
// A key's count lives in a slice the map indexes, so counting a key already
// seen allocates nothing, whatever its form.
type Exact struct {
	index  map[string]int
	counts []uint64
	total  uint64
}

// NewExact returns an empty exact counter.
func NewExact() *Exact {
	return &Exact{index: make(map[string]int)}
}

// Offer records one occurrence of key.
func (e *Exact) Offer(key string) { e.OfferN(key, 1) }

// OfferBytes is Offer for a key held in bytes: it looks the key up without
// converting it and copies it only the first time it sees it.
func (e *Exact) OfferBytes(key []byte) {
	e.total++
	if i, ok := e.index[string(key)]; ok {
		e.counts[i]++
		return
	}
	e.index[string(key)] = len(e.counts)
	e.counts = append(e.counts, 1)
}

// OfferN records n occurrences of key.
func (e *Exact) OfferN(key string, n uint64) {
	e.total += n
	if i, ok := e.index[key]; ok {
		e.counts[i] += n
		return
	}
	e.index[key] = len(e.counts)
	e.counts = append(e.counts, n)
}

// Count returns key's exact count.
func (e *Exact) Count(key string) uint64 {
	if i, ok := e.index[key]; ok {
		return e.counts[i]
	}
	return 0
}

// Total returns the number of observations.
func (e *Exact) Total() uint64 { return e.total }

// Distinct returns the number of distinct keys seen.
func (e *Exact) Distinct() int { return len(e.counts) }

// Top returns the true top-k keys in descending count, ties broken
// lexicographically.
func (e *Exact) Top(k int) []Counted {
	all := make([]Counted, 0, len(e.counts))
	for key, i := range e.index {
		all = append(all, Counted{Key: key, Count: e.counts[i]})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// RankedCounts returns all counts in descending order (rank-frequency data,
// used for Fig. 3 and for Zipf-parameter estimation).
func (e *Exact) RankedCounts() []uint64 {
	counts := append([]uint64(nil), e.counts...)
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	return counts
}

// LRU is the buffer policy of Fig. 7's LRU baseline: every arriving key is
// admitted; if the buffer is full the least-recently-used key is evicted.
// Touch reports whether the key was already buffered (a hit, i.e. the
// record could be combined in memory).
type LRU struct {
	capacity int
	ll       *list.List // front = most recent
	items    map[string]*list.Element
	hits     uint64
	misses   uint64
}

// NewLRU returns an LRU buffer holding at most capacity keys.
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		capacity = 1
	}
	return &LRU{capacity: capacity, ll: list.New(), items: make(map[string]*list.Element, capacity)}
}

// Touch records an access to key, admitting it if absent and evicting the
// LRU key when over capacity. It reports whether the access was a hit.
func (l *LRU) Touch(key string) bool {
	if el, ok := l.items[key]; ok {
		l.ll.MoveToFront(el)
		l.hits++
		return true
	}
	l.misses++
	if l.ll.Len() >= l.capacity {
		back := l.ll.Back()
		delete(l.items, back.Value.(string))
		l.ll.Remove(back)
	}
	l.items[key] = l.ll.PushFront(key)
	return false
}

// Hits returns the number of hit accesses.
func (l *LRU) Hits() uint64 { return l.hits }

// Misses returns the number of miss accesses.
func (l *LRU) Misses() uint64 { return l.misses }

// Len returns the number of buffered keys.
func (l *LRU) Len() int { return l.ll.Len() }
