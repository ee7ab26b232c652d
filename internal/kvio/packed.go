package kvio

// Packed record batches — the map-side hot-path representation.
//
// The spill buffer used to hand the support goroutine a []Record whose
// every Key and Value was its own heap allocation; sorting that slice
// moved three slice headers per swap and paid a full bytes.Compare per
// comparison through a closure. This file replaces that representation
// with the moral equivalent of Hadoop's kvbuffer/kvmeta pair: record
// bytes live contiguously in one arena, and a compact per-record Meta
// array carries the partition, the arena location, and the first eight
// key bytes packed into a big-endian integer. Sorting permutes only the
// Meta array, and the vast majority of comparisons resolve on the
// (Part, Prefix) integer pair without ever touching the arena.
//
// SortRecords (kvio.go) remains the reference implementation; under the
// mrdebug build tag every SortPacked call is checked against it
// (packed_debug.go).

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Meta is the compact per-record descriptor of a packed batch — the
// analogue of one Hadoop kvmeta entry. Key bytes sit at
// Arena[KeyOff:KeyOff+KeyLen], immediately followed by ValLen value
// bytes. Prefix caches the first eight key bytes big-endian and
// zero-padded, so unsigned integer order equals lexicographic byte
// order over those bytes.
type Meta struct {
	Prefix uint64
	KeyOff uint32
	KeyLen uint32
	ValLen uint32
	Part   int32
}

// KeyPrefix packs the first eight bytes of key into a big-endian
// uint64, zero-padding short keys on the right. For keys of at most
// eight bytes the prefix together with the length determines the key
// completely.
//
//mrlint:hotpath
func KeyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p uint64
	for i, b := range key {
		p |= uint64(b) << (56 - 8*i)
	}
	return p
}

// PackedRecords is a batch of records in packed arena form: all key and
// value bytes appended into one arena, one Meta entry per record in
// emit order.
type PackedRecords struct {
	Meta  []Meta
	Arena []byte
}

// Reserve grows the batch's capacity to at least records entries and
// arena payload bytes in total, keeping its contents. A caller that knows
// its budget (the spill buffer) sizes a batch once with Reserve, so that
// Append on the record path never regrows the slices by doubling.
func (p *PackedRecords) Reserve(records, arena int) {
	if records > cap(p.Meta) {
		p.Meta = append(make([]Meta, 0, records), p.Meta...)
	}
	if arena > cap(p.Arena) {
		p.Arena = append(make([]byte, 0, arena), p.Arena...)
	}
}

// Append packs one record onto the batch. The key and value bytes are
// copied into the arena, so the caller keeps ownership of its slices.
// Beyond the reserved capacity Arena and Meta grow amortized; both are
// recycled across spills by Reset.
//
//mrlint:hotpath
func (p *PackedRecords) Append(part int, key, value []byte) {
	off := uint32(len(p.Arena))
	p.Arena = append(p.Arena, key...)
	p.Arena = append(p.Arena, value...)
	p.Meta = append(p.Meta, Meta{
		Prefix: KeyPrefix(key),
		KeyOff: off,
		KeyLen: uint32(len(key)),
		ValLen: uint32(len(value)),
		Part:   int32(part),
	})
}

// Len returns the number of records in the batch.
func (p PackedRecords) Len() int { return len(p.Meta) }

// ArenaBytes returns the bytes occupied by record payloads.
func (p PackedRecords) ArenaBytes() int64 { return int64(len(p.Arena)) }

// Part returns record i's partition.
func (p PackedRecords) Part(i int) int { return int(p.Meta[i].Part) }

// Key returns record i's key bytes, aliasing the arena.
func (p PackedRecords) Key(i int) []byte {
	m := p.Meta[i]
	return p.Arena[m.KeyOff : m.KeyOff+m.KeyLen : m.KeyOff+m.KeyLen]
}

// Value returns record i's value bytes, aliasing the arena.
func (p PackedRecords) Value(i int) []byte {
	m := p.Meta[i]
	off := m.KeyOff + m.KeyLen
	return p.Arena[off : off+m.ValLen : off+m.ValLen]
}

// Record materializes record i as a Record whose slices alias the arena.
func (p PackedRecords) Record(i int) Record {
	return Record{Part: p.Part(i), Key: p.Key(i), Value: p.Value(i)}
}

// Reset empties the batch, keeping the arena and metadata capacity for
// reuse (the spill buffer recycles released batches this way).
func (p *PackedRecords) Reset() {
	p.Meta = p.Meta[:0]
	p.Arena = p.Arena[:0]
}

// Less reports whether record i orders before record j under the spill
// order: (partition, key), ties broken by arena position (= emit
// order), which is what makes the unstable index sort below produce the
// stable result combiner semantics need.
func (p PackedRecords) Less(i, j int) bool {
	return metaLess(p.Arena, p.Meta[i], p.Meta[j])
}

// KeyEqual reports whether records i and j carry the same key.
func (p PackedRecords) KeyEqual(i, j int) bool {
	a, b := p.Meta[i], p.Meta[j]
	if a.Prefix != b.Prefix || a.KeyLen != b.KeyLen {
		return false
	}
	if a.KeyLen <= 8 {
		return true
	}
	return bytes.Equal(p.Arena[a.KeyOff+8:a.KeyOff+a.KeyLen], p.Arena[b.KeyOff+8:b.KeyOff+b.KeyLen])
}

// metaLess is the packed comparison: partition, then the eight-byte key
// prefix as one unsigned compare, and only on a prefix tie the
// remaining key bytes. When either key fits entirely in the prefix, a
// tied prefix means the shorter key is a (possibly equal) prefix of the
// longer, so the length decides. The final KeyOff tiebreak makes the
// order total: no two records compare equal, so a fast unstable sort
// yields the stable (emit-order) result.
func metaLess(arena []byte, a, b Meta) bool {
	if a.Part != b.Part {
		return a.Part < b.Part
	}
	if a.Prefix != b.Prefix {
		return a.Prefix < b.Prefix
	}
	if a.KeyLen <= 8 || b.KeyLen <= 8 {
		if a.KeyLen != b.KeyLen {
			return a.KeyLen < b.KeyLen
		}
		return a.KeyOff < b.KeyOff
	}
	// Prefixes tied and both keys longer than eight bytes: the first
	// eight bytes are known equal, compare only the tails.
	c := bytes.Compare(arena[a.KeyOff+8:a.KeyOff+a.KeyLen], arena[b.KeyOff+8:b.KeyOff+b.KeyLen])
	if c != 0 {
		return c < 0
	}
	return a.KeyOff < b.KeyOff
}

// SortPacked sorts the batch by (partition, key) with stable order for
// equal keys, permuting only the Meta array. It is the hot-path
// replacement for SortRecords; under the mrdebug build tag the result
// is verified against SortRecords on every call.
//
//mrlint:hotpath
func SortPacked(p PackedRecords) {
	ref := debugSortReference(p)
	if len(p.Meta) > 1 {
		introSortMeta(p.Meta, p.Arena, 2*bits.Len(uint(len(p.Meta))))
	}
	debugCheckSortAgreement(p, ref)
}

// introSortMeta is a quicksort over Meta entries with median-of-three
// pivots, an insertion-sort cutoff for short runs, and a heapsort
// fallback once the depth budget is spent (so adversarial inputs stay
// O(n log n)).
func introSortMeta(m []Meta, arena []byte, depth int) {
	for len(m) > 16 {
		if depth == 0 {
			heapSortMeta(m, arena)
			return
		}
		depth--
		p := partitionMeta(m, arena)
		// Recurse into the smaller side, iterate on the larger: O(log n)
		// stack depth regardless of pivot quality.
		if p < len(m)-p-1 {
			introSortMeta(m[:p], arena, depth)
			m = m[p+1:]
		} else {
			introSortMeta(m[p+1:], arena, depth)
			m = m[:p]
		}
	}
	insertionSortMeta(m, arena)
}

// partitionMeta partitions m around a median-of-three pivot and returns
// the pivot's final index.
func partitionMeta(m []Meta, arena []byte) int {
	mid, hi := len(m)/2, len(m)-1
	if metaLess(arena, m[mid], m[0]) {
		m[0], m[mid] = m[mid], m[0]
	}
	if metaLess(arena, m[hi], m[mid]) {
		m[mid], m[hi] = m[hi], m[mid]
		if metaLess(arena, m[mid], m[0]) {
			m[0], m[mid] = m[mid], m[0]
		}
	}
	m[mid], m[hi] = m[hi], m[mid] // median to the pivot slot
	pivot := m[hi]
	i := 0
	for j := 0; j < hi; j++ {
		if metaLess(arena, m[j], pivot) {
			m[i], m[j] = m[j], m[i]
			i++
		}
	}
	m[i], m[hi] = m[hi], m[i]
	return i
}

func insertionSortMeta(m []Meta, arena []byte) {
	for i := 1; i < len(m); i++ {
		for j := i; j > 0 && metaLess(arena, m[j], m[j-1]); j-- {
			m[j], m[j-1] = m[j-1], m[j]
		}
	}
}

func heapSortMeta(m []Meta, arena []byte) {
	n := len(m)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownMeta(m, arena, i, n)
	}
	for i := n - 1; i > 0; i-- {
		m[0], m[i] = m[i], m[0]
		siftDownMeta(m, arena, 0, i)
	}
}

func siftDownMeta(m []Meta, arena []byte, root, n int) {
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && metaLess(arena, m[c], m[c+1]) {
			c++
		}
		if !metaLess(arena, m[root], m[c]) {
			return
		}
		m[root], m[c] = m[c], m[root]
		root = c
	}
}
