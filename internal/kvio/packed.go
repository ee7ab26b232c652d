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
// Meta array.
//
// The map task's spill buffer goes one step further and files each Meta
// under its partition as the record arrives (Region), so a spill reaches
// the sort already grouped and the sort starts inside a partition.
//
// The sort is a stable MSD radix over (Part, key bytes): a flat batch is
// grouped by partition in one pass (a Region arrives grouped), then each
// partition is split a key byte at a time — bytes 0–7 read from the
// cached Prefix, later ones from the arena — starting past the bytes all
// its keys share, which is
// what keeps URL keys ("example.org/…") from paying for twelve levels
// that split nothing. Every level has 257 buckets: bucket 0 takes the
// keys that have ended, so "ab" sorts before "ab\x00" although both pad
// to one Prefix, and a bucket-0 group is one key's records, already in
// emit order, finished without a comparison. Small buckets finish by
// insertion sort on metaLess; a bucket still large radixDepth bytes past
// the common prefix, and any batch with a Part the partition pass cannot
// index, goes to one comparison sort over the same total order.
//
// SortRecords (kvio.go) remains the reference implementation; under the
// mrdebug build tag every SortPacked call is checked against it
// (packed_debug.go).

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
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

// Append packs one record onto the batch. The key and value bytes are
// copied into the arena, so the caller keeps ownership of its slices.
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

// Region is a batch of records filed by partition as they arrive: one
// arena, and per partition the Meta entries of its records in emit
// order. It is what the spill buffer fills and hands to the sort, which
// therefore never has to group a spill by partition. A Region grows by
// doubling and keeps its capacity across Reset, so one that has held a
// spill holds the next without allocating.
type Region struct {
	Arena []byte
	Parts [][]Meta
}

// Append packs one record onto the region under partition part, which
// the caller has checked to be a partition of the job (the table grows to
// part+1 entries). The key and value bytes are copied into the arena.
//
//mrlint:hotpath
func (r *Region) Append(part int, key, value []byte) {
	if part >= len(r.Parts) {
		//mrlint:ignore alloccheck grows to the partition count on a region's first records, then is reused
		r.Parts = append(r.Parts, make([][]Meta, part+1-len(r.Parts))...)
	}
	off := len(r.Arena)
	if payload := len(key) + len(value); off+payload > cap(r.Arena) {
		//mrlint:ignore alloccheck a new region's growth: one that has held a spill holds the next without allocating
		r.Arena = slices.Grow(r.Arena, max(cap(r.Arena), payload, minRegionGrowth))
	}
	r.Arena = append(r.Arena, key...)
	r.Arena = append(r.Arena, value...)
	m := r.Parts[part]
	if len(m) == cap(m) {
		//mrlint:ignore alloccheck a new region's growth, as above
		m = slices.Grow(m, max(cap(m), minRegionGrowth/metaBytes))
	}
	//mrlint:ignore alloccheck room for the entry was made above
	r.Parts[part] = append(m, Meta{
		Prefix: KeyPrefix(key),
		KeyOff: uint32(off),
		KeyLen: uint32(len(key)),
		ValLen: uint32(len(value)),
		Part:   int32(part),
	})
}

// A region's arrays double when they are full, from minRegionGrowth bytes:
// a region is grown once in its life, by the first spill it holds, and
// doubling allocates twice the final size in all where append's own
// quarter steps allocate five times it.
const (
	minRegionGrowth = 4 << 10
	metaBytes       = 24
)

// Len returns the number of records in the region.
func (r Region) Len() int {
	n := 0
	for _, m := range r.Parts {
		n += len(m)
	}
	return n
}

// Part returns partition p's records as a packed batch aliasing the
// region.
func (r Region) Part(p int) PackedRecords {
	return PackedRecords{Meta: r.Parts[p], Arena: r.Arena}
}

// Twin returns an empty region with room for what r holds and an eighth
// more, allocated in one step per array: what a buffer fills next when it
// has no recycled region to fill, on the expectation that a task's spills
// are sized alike.
func (r Region) Twin() Region {
	t := Region{Arena: make([]byte, 0, len(r.Arena)+len(r.Arena)/8), Parts: make([][]Meta, len(r.Parts))}
	for p, m := range r.Parts {
		if len(m) > 0 {
			t.Parts[p] = make([]Meta, 0, len(m)+len(m)/8)
		}
	}
	return t
}

// Reset empties the region, keeping the capacity of the arena and of
// every partition's entries for the next spill.
func (r *Region) Reset() {
	r.Arena = r.Arena[:0]
	for p := range r.Parts {
		r.Parts[p] = r.Parts[p][:0]
	}
}

// Less reports whether record i orders before record j under the spill
// order: (partition, key), ties broken by arena position (= emit
// order), the stable result combiner semantics need.
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
// order total: no two records compare equal, so the insertion and
// comparison sorts that finish radix buckets need not be stable to agree
// with it.
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

// Sorter sorts packed batches and owns the kernel's scratch, so a caller
// that sorts batch after batch (a map task's support goroutine)
// allocates it once. The zero value is ready to use; a Sorter serves one
// goroutine at a time.
type Sorter struct {
	dest  []uint32 // per record: its slot in Sort's partition pass, then its bucket at each radix level
	buf   []Meta   // ping-pong buffer of the radix levels, as long as the widest partition
	parts []int    // Sort only. Per partition: record count, then start, then end
}

const (
	// radixCutoff is the bucket size at and below which insertion sort
	// finishes the job (16 measured best of 6…64 on all three
	// BenchmarkSortPacked shapes); radixDepth is how many key bytes past
	// a partition's common prefix the radix descends before it hands a
	// bucket that is still larger to the comparison sort.
	radixCutoff = 16
	radixDepth  = 64
)

// SortPacked sorts the batch by (partition, key) with stable order for
// equal keys, permuting only the Meta array. The batch must be in emit
// order (KeyOff ascending), as Append builds it. It allocates the
// kernel's scratch per call; a caller with many batches keeps a Sorter.
//
//mrlint:hotpath
func SortPacked(p PackedRecords) {
	var s Sorter
	s.Sort(p)
}

// Sort is SortPacked on the Sorter's scratch: the sort of a flat batch,
// which has to be grouped by partition first. The spill path sorts
// Regions, which arrive grouped (SortRegion); Sort is what the tests hold
// that against. Under the mrdebug build tag the result is verified
// against SortRecords on every call.
//
//mrlint:hotpath
func (s *Sorter) Sort(p PackedRecords) {
	ref := debugSortReference(p)
	s.sort(p.Meta, p.Arena)
	debugCheckSortAgreement(p, ref)
}

// SortRegion sorts every partition of r by key with stable order for
// equal keys, permuting only the partition's Meta entries. Each must be
// in emit order, as Region.Append files them. Under the mrdebug build tag
// every partition is verified against SortRecords.
//
//mrlint:hotpath
func (s *Sorter) SortRegion(r Region) {
	widest := 0
	for _, m := range r.Parts {
		widest = max(widest, len(m))
	}
	s.reserve(widest, widest)
	for p := range r.Parts {
		ref := debugSortReference(r.Part(p))
		s.sortPart(r.Parts[p], r.Arena)
		debugCheckSortAgreement(r.Part(p), ref)
	}
}

// reserve sizes the scratch for n records of which no partition holds
// more than widest. A little headroom on both: a task's spills are sized
// alike but filled a few records apart, and the second must not regrow
// for them.
func (s *Sorter) reserve(n, widest int) {
	if cap(s.dest) < n {
		//mrlint:ignore alloccheck grows to the largest spill a task sorts, then is reused
		s.dest = make([]uint32, n+n/32)
	}
	if cap(s.buf) < widest {
		//mrlint:ignore alloccheck grows to the widest partition a task sorts, then is reused
		s.buf = make([]Meta, widest+widest/32)
	}
}

// sort groups the batch by partition — a counting pass gives every
// record its slot, in emit order within its partition, and the records
// are moved there in place — then sorts each partition. Moving in place
// costs a dependent load per record where a scatter into a second array
// would not, but a second array is one more Meta per record; buf is a
// partition's worth. A Part no batch of this size can have been
// partitioned into — negative, or at least len(meta) — would index
// outside the count table, so such a batch goes to the comparison sort
// whole.
func (s *Sorter) sort(meta []Meta, arena []byte) {
	n := len(meta)
	if n <= radixCutoff {
		insertionSortMeta(meta, arena)
		return
	}
	ends := s.parts
	clear(ends)
	for i := range meta {
		part := uint32(meta[i].Part)
		if part >= uint32(len(ends)) {
			if part >= uint32(n) {
				compareSortMeta(meta, arena)
				return
			}
			//mrlint:ignore alloccheck grows to the partition count on a sorter's first batch, then is reused
			ends = append(ends, make([]int, int(part)+1-len(ends))...)
		}
		ends[part]++
	}
	s.parts = ends
	off, widest := 0, 0
	for part, c := range ends {
		ends[part] = off
		off += c
		widest = max(widest, c)
	}
	s.reserve(n, widest)
	dest := s.dest[:n]
	for i := range meta {
		part := meta[i].Part
		dest[i] = uint32(ends[part])
		ends[part]++
	}
	permuteMeta(meta, dest)
	lo := 0
	for _, hi := range ends {
		s.sortPart(meta[lo:hi], arena)
		lo = hi
	}
}

// sortPart sorts one partition's records, in emit order on entry, by
// key: the radix starts past the bytes all the keys share. The scratch
// holds len(m) records (reserve).
func (s *Sorter) sortPart(m []Meta, arena []byte) {
	if len(m) <= radixCutoff {
		insertionSortMeta(m, arena)
		return
	}
	d := commonKeyPrefix(m, arena)
	radixSortMeta(m, s.buf[:len(m)], s.dest[:len(m)], arena, d, d+radixDepth, true)
}

// permuteMeta moves every m[i] to m[dest[i]] in place, one cycle of the
// permutation at a time: the carried record is dropped where it belongs
// and the one that was there is picked up, until the cycle closes. dest
// is the identity afterwards.
func permuteMeta(m []Meta, dest []uint32) {
	for i := range m {
		j := dest[i]
		if j == uint32(i) {
			continue
		}
		carried := m[i]
		for j != uint32(i) {
			carried, m[j] = m[j], carried
			j, dest[j] = dest[j], j
		}
		m[i], dest[i] = carried, j
	}
}

// commonKeyPrefix returns the number of leading bytes every key of m
// shares: no radix level below it can split the batch. The first pass
// reads only the cached prefixes; the arena is read only when all keys
// agree on their first eight bytes, as URL keys do.
func commonKeyPrefix(m []Meta, arena []byte) int {
	first := m[0]
	minLen := first.KeyLen
	var diff uint64
	for i := 1; i < len(m); i++ {
		diff |= m[i].Prefix ^ first.Prefix
		if diff>>56 != 0 {
			return 0
		}
		minLen = min(minLen, m[i].KeyLen)
	}
	if lcp := uint32(bits.LeadingZeros64(diff) / 8); lcp < 8 || minLen <= 8 {
		return int(min(lcp, minLen))
	}
	tail := arena[first.KeyOff+8 : first.KeyOff+minLen]
	for i := 1; i < len(m) && len(tail) > 0; i++ {
		tail = tail[:sharedPrefix(tail, arena[m[i].KeyOff+8:m[i].KeyOff+minLen])]
	}
	return 8 + len(tail)
}

// radixSortMeta sorts src, one partition's records whose keys all share
// their first d bytes, by stable MSD radix on key byte d, d+1, … (see the
// file comment for the 257 buckets). A level that fills one bucket moves
// nothing. Records ping-pong between src and buf, equally long; the
// sorted result lands in whichever of the two is the caller's Meta array
// (src when srcIsHome). bucket is per-record scratch.
func radixSortMeta(src, buf []Meta, bucket []uint32, arena []byte, d, limit int, srcIsHome bool) {
	n := len(src)
	for {
		if n <= radixCutoff || d >= limit {
			if !srcIsHome {
				copy(buf, src)
				src = buf
			}
			if n <= radixCutoff {
				insertionSortMeta(src, arena)
			} else {
				compareSortMeta(src, arena)
			}
			return
		}
		var ends [257]int // counts, then bucket starts, then (after the scatter) bucket ends
		if d < 8 {
			shift := uint(56 - 8*d)
			for i := range src {
				b := uint32(0)
				if uint32(d) < src[i].KeyLen {
					b = uint32(byte(src[i].Prefix>>shift)) + 1
				}
				bucket[i] = b
				ends[b]++
			}
		} else {
			for i := range src {
				b := uint32(0)
				if uint32(d) < src[i].KeyLen {
					b = uint32(arena[src[i].KeyOff+uint32(d)]) + 1
				}
				bucket[i] = b
				ends[b]++
			}
		}
		if ends[bucket[0]] < n {
			off := 0
			for b, c := range ends {
				ends[b] = off
				off += c
			}
			for i := range src {
				b := bucket[i]
				buf[ends[b]] = src[i]
				ends[b]++
			}
			lo := 0
			for b, hi := range ends {
				if b > 0 && hi-lo > 1 {
					radixSortMeta(buf[lo:hi], src[lo:hi], bucket[lo:hi], arena, d+1, limit, !srcIsHome)
				} else if srcIsHome && hi > lo { // ended keys, or a single record: in order as scattered
					copy(src[lo:hi], buf[lo:hi])
				}
				lo = hi
			}
			return
		}
		if bucket[0] == 0 { // every key ends here: one key, already in emit order
			if !srcIsHome {
				copy(buf, src)
			}
			return
		}
		d++
	}
}

// compareSortMeta is the comparison sort over the same total order, for
// what the radix does not take: a batch with a Part out of range, and
// buckets of keys still tied radixDepth bytes past their common prefix.
func compareSortMeta(m []Meta, arena []byte) {
	//mrlint:ignore alloccheck off the steady-state path: malformed batches and keys tied 64 bytes deep only
	slices.SortFunc(m, func(a, b Meta) int {
		switch {
		case metaLess(arena, a, b):
			return -1
		case metaLess(arena, b, a):
			return 1
		}
		return 0
	})
}

func insertionSortMeta(m []Meta, arena []byte) {
	for i := 1; i < len(m); i++ {
		for j := i; j > 0 && metaLess(arena, m[j], m[j-1]); j-- {
			m[j], m[j-1] = m[j-1], m[j]
		}
	}
}
