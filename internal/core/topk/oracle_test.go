package topk

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// listSummary is the Space-Saving summary on container/list, as first
// written: the oracle the intrusive StreamSummary is checked against. It
// allocates a list element for every count, which is why it is not the
// runtime's.
type listSummary struct {
	capacity int
	items    map[string]*listItem
	buckets  *list.List // of *listBucket, ascending by count
}

type listBucket struct {
	count uint64
	items *list.List // of *listItem
}

type listItem struct {
	key    string
	err    uint64
	bucket *list.Element
	self   *list.Element
}

func newListSummary(capacity int) *listSummary {
	return &listSummary{capacity: capacity, items: make(map[string]*listItem), buckets: list.New()}
}

func (s *listSummary) Offer(key string) {
	if it, ok := s.items[key]; ok {
		s.increment(it)
		return
	}
	if len(s.items) < s.capacity {
		s.insert(key, 1, 0)
		return
	}
	minBkt := s.buckets.Front().Value.(*listBucket)
	victimEl := minBkt.items.Front()
	victim := victimEl.Value.(*listItem)
	delete(s.items, victim.key)
	minBkt.items.Remove(victimEl)
	minCount := minBkt.count
	if minBkt.items.Len() == 0 {
		s.buckets.Remove(s.buckets.Front())
	}
	s.insert(key, minCount+1, minCount)
}

func (s *listSummary) insert(key string, count, errBound uint64) {
	it := &listItem{key: key, err: errBound}
	s.items[key] = it
	el := s.buckets.Front()
	for el != nil && el.Value.(*listBucket).count < count {
		el = el.Next()
	}
	if el == nil || el.Value.(*listBucket).count > count {
		b := &listBucket{count: count, items: list.New()}
		if el == nil {
			it.bucket = s.buckets.PushBack(b)
		} else {
			it.bucket = s.buckets.InsertBefore(b, el)
		}
	} else {
		it.bucket = el
	}
	it.self = it.bucket.Value.(*listBucket).items.PushBack(it)
}

func (s *listSummary) increment(it *listItem) {
	cur := it.bucket
	b := cur.Value.(*listBucket)
	newCount := b.count + 1
	b.items.Remove(it.self)
	el := cur.Next()
	if b.items.Len() == 0 {
		s.buckets.Remove(cur)
	}
	for el != nil && el.Value.(*listBucket).count < newCount {
		el = el.Next()
	}
	var dst *list.Element
	if el == nil || el.Value.(*listBucket).count > newCount {
		nb := &listBucket{count: newCount, items: list.New()}
		if el == nil {
			dst = s.buckets.PushBack(nb)
		} else {
			dst = s.buckets.InsertBefore(nb, el)
		}
	} else {
		dst = el
	}
	it.bucket = dst
	it.self = dst.Value.(*listBucket).items.PushBack(it)
}

// order lists the monitored keys as the buckets hold them: descending
// count, and within a count in the order the keys reached it.
func (s *listSummary) order() []Counted {
	var out []Counted
	for el := s.buckets.Back(); el != nil; el = el.Prev() {
		b := el.Value.(*listBucket)
		for e := b.items.Front(); e != nil; e = e.Next() {
			it := e.Value.(*listItem)
			out = append(out, Counted{Key: it.key, Count: b.count, Err: it.err})
		}
	}
	return out
}

// order is listSummary.order for the StreamSummary.
func (s *StreamSummary) order() []Counted {
	var out []Counted
	for b := s.max; b != nil; b = b.prev {
		for it := b.head; it != nil; it = it.next {
			out = append(out, Counted{Key: it.key, Count: b.count, Err: it.err})
		}
	}
	return out
}

// TestStreamSummaryMatchesListOracle: fed the same stream, through Offer
// and OfferBytes alike, the summary holds the oracle's keys, counts and
// errors in the oracle's order after every record — the order decides the
// next eviction's victim, so matching it is matching every future state.
func TestStreamSummaryMatchesListOracle(t *testing.T) {
	for _, tc := range []struct {
		capacity, vocab, n int
	}{{1, 5, 200}, {3, 10, 2000}, {16, 100, 5000}, {64, 60, 3000}, {32, 5000, 8000}} {
		t.Run(fmt.Sprintf("cap%d-vocab%d", tc.capacity, tc.vocab), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.capacity*1000 + tc.vocab)))
			got, want := NewStreamSummary(tc.capacity), newListSummary(tc.capacity)
			for i, key := range zipfStream(int64(tc.vocab), tc.n, tc.vocab) {
				if rng.Intn(2) == 0 {
					got.Offer(key)
				} else {
					got.OfferBytes([]byte(key))
				}
				want.Offer(key)
				g, w := got.order(), want.order()
				if fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("after record %d (%q):\n got %v\nwant %v", i, key, g, w)
				}
			}
			if got.Observed() != uint64(tc.n) || got.Len() != len(want.items) {
				t.Errorf("observed %d, len %d; want %d, %d", got.Observed(), got.Len(), tc.n, len(want.items))
			}
		})
	}
}

// TestOfferBytesAllocations: counting a key the summary already monitors,
// or the exact counter has already seen, allocates nothing; only a key the
// summary starts to monitor is copied.
func TestOfferBytesAllocations(t *testing.T) {
	keys := make([][]byte, 8)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%02d", i))
	}
	s, e := NewStreamSummary(len(keys)), NewExact()
	for _, k := range keys {
		s.OfferBytes(k)
		e.OfferBytes(k)
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		s.OfferBytes(keys[i%len(keys)])
		e.OfferBytes(keys[i%len(keys)])
		i++
	}); a != 0 {
		t.Errorf("offering monitored keys: %.2f allocs per offer, want 0", a)
	}
	// A new key evicts one and takes its item: one allocation, the key's
	// copy.
	fresh := make([][]byte, 101)
	for i := range fresh {
		fresh[i] = []byte(fmt.Sprintf("new-%06d", i))
	}
	next := 0
	if a := testing.AllocsPerRun(100, func() {
		s.OfferBytes(fresh[next])
		next++
	}); a > 1 {
		t.Errorf("offering unmonitored keys: %.2f allocs per offer, want 1, the key's copy", a)
	}
}
