//go:build mrdebug

package mr

import (
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
