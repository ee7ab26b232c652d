//go:build mrdebug

package mr

import (
	"bytes"
	"fmt"

	"mrtext/internal/kvio"
)

// This file holds the debug-build runtime assertions of the map pipeline.
// They compile in only under -tags mrdebug; release builds link the no-op
// twins in invariants_off.go.

// debugBuild says whether the assertions are compiled in.
const debugBuild = true

// debugAssert panics with a formatted message when cond is false.
func debugAssert(cond bool, format string, args ...any) {
	if !cond {
		panic("mr: invariant violated: " + fmt.Sprintf(format, args...))
	}
}

// debugAssertSorted asserts recs are ordered by (partition, key) — the
// precondition every run writer and merge stream relies on.
func debugAssertSorted(recs []kvio.Record, context string) {
	for i := 1; i < len(recs); i++ {
		a, b := &recs[i-1], &recs[i]
		if a.Part > b.Part || (a.Part == b.Part && bytes.Compare(a.Key, b.Key) > 0) {
			panic(fmt.Sprintf("mr: invariant violated: %s: records out of (partition, key) order at %d: (%d, %q) > (%d, %q)",
				context, i, a.Part, a.Key, b.Part, b.Key))
		}
	}
}

// debugAssertSortedPacked asserts a packed batch is ordered under the
// total order SortPacked establishes — (partition, key) ascending, with
// equal keys in emit (arena-offset) order, i.e. the stable order the
// combiner contract requires.
func debugAssertSortedPacked(recs kvio.PackedRecords, context string) {
	for i := 1; i < recs.Len(); i++ {
		if recs.Less(i, i-1) {
			panic(fmt.Sprintf("mr: invariant violated: %s: packed records out of order at %d: (%d, %q, off %d) > (%d, %q, off %d)",
				context, i, recs.Part(i-1), recs.Key(i-1), recs.Meta[i-1].KeyOff,
				recs.Part(i), recs.Key(i), recs.Meta[i].KeyOff))
		}
	}
}
