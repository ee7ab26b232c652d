//go:build mrdebug

package kvio

import (
	"bytes"
	"fmt"
)

// Debug-build verification of the packed index sort against the
// reference SortRecords. Compiled in only under -tags mrdebug; the
// release build links the no-op twins in packed_debug_off.go.

// debugSortReference materializes the batch before sorting and sorts
// the copy with the reference implementation. It also asserts what the
// radix sort's stability rests on: the batch arrives in emit order.
func debugSortReference(p PackedRecords) []Record {
	recs := make([]Record, p.Len())
	for i := range recs {
		if i > 0 && p.Meta[i].KeyOff < p.Meta[i-1].KeyOff {
			panic(fmt.Sprintf("kvio: SortPacked batch not in emit order: record %d at arena offset %d follows offset %d", i, p.Meta[i].KeyOff, p.Meta[i-1].KeyOff))
		}
		recs[i] = Record{
			Part:  p.Part(i),
			Key:   append([]byte(nil), p.Key(i)...),
			Value: append([]byte(nil), p.Value(i)...),
		}
	}
	SortRecords(recs)
	return recs
}

// debugCheckSortAgreement panics unless the packed sort produced
// exactly the reference sequence — same records, same stable order.
func debugCheckSortAgreement(p PackedRecords, ref []Record) {
	if len(ref) != p.Len() {
		panic(fmt.Sprintf("kvio: SortPacked changed record count: %d != %d", p.Len(), len(ref)))
	}
	for i, r := range ref {
		if p.Part(i) != r.Part || !bytes.Equal(p.Key(i), r.Key) || !bytes.Equal(p.Value(i), r.Value) {
			panic(fmt.Sprintf("kvio: SortPacked disagrees with SortRecords at %d: got (%d, %q, %q), reference (%d, %q, %q)",
				i, p.Part(i), p.Key(i), p.Value(i), r.Part, r.Key, r.Value))
		}
	}
}
