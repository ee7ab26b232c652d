//go:build !mrdebug

package mr

import "mrtext/internal/kvio"

// Release-build no-op twins of the mrdebug assertions; see invariants.go.

const debugBuild = false

func debugAssert(bool, string, ...any) {}

func debugAssertSortedPacked(kvio.PackedRecords, string) {}
