//go:build !mrdebug

package spillbuf

import "mrtext/internal/kvio"

// Release-build no-op twins of the mrdebug invariant checks; see
// invariants.go for the real assertions.

const debugBuild = false

func (b *Buffer) checkInvariants(string) {}

func (b *Buffer) checkPendingSum(string) {}

func (h *Regions) checkReturn(kvio.Region) {}
