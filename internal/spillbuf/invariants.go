//go:build mrdebug

package spillbuf

import "fmt"

// This file holds the debug-build invariant checks of the spill buffer.
// They compile in only under -tags mrdebug; the release build links the
// no-op twins in invariants_off.go, so the hot path pays nothing.

// checkInvariants asserts the buffer's O(1) structural invariants. The
// caller must hold b.mu.
func (b *Buffer) checkInvariants(where string) {
	if b.pendingBytes < 0 {
		panic(fmt.Sprintf("spillbuf: %s: negative pendingBytes %d", where, b.pendingBytes))
	}
	if b.inflight < 0 {
		panic(fmt.Sprintf("spillbuf: %s: negative inflight %d", where, b.inflight))
	}
	if (b.pending.Len() == 0) != (b.pendingBytes == 0) {
		panic(fmt.Sprintf("spillbuf: %s: pending region inconsistent: %d records, %d bytes",
			where, b.pending.Len(), b.pendingBytes))
	}
	if b.maxPending < b.pendingBytes {
		panic(fmt.Sprintf("spillbuf: %s: maxPending watermark %d below pendingBytes %d",
			where, b.maxPending, b.pendingBytes))
	}
	if spills := b.spills.Load(); int64(b.seq) != spills {
		panic(fmt.Sprintf("spillbuf: %s: seq %d != spills %d", where, b.seq, spills))
	}
	if b.inflight > b.spillBytes {
		panic(fmt.Sprintf("spillbuf: %s: inflight %d exceeds total spilled bytes %d",
			where, b.inflight, b.spillBytes))
	}
	// The byte budget M bounds pending+inflight, except for the single
	// oversized record the producer may admit into an empty buffer.
	if b.pendingBytes+b.inflight > b.capacity && b.pending.Len() > 1 {
		panic(fmt.Sprintf("spillbuf: %s: budget exceeded: pending %d + inflight %d > capacity %d with %d pending records",
			where, b.pendingBytes, b.inflight, b.capacity, b.pending.Len()))
	}
	if len(b.free) > maxFreeBatches {
		panic(fmt.Sprintf("spillbuf: %s: recycling pool holds %d batches, cap %d", where, len(b.free), maxFreeBatches))
	}
}

// checkPendingSum asserts the O(n) accounting invariants of the packed
// pending region: pendingBytes equals the sum of the records' charges,
// and every meta entry's payload lies inside the arena with the charge
// model's per-record overhead accounted. Called only at spill handoff so
// debug builds stay usable. The caller must hold b.mu.
func (b *Buffer) checkPendingSum(where string) {
	var sum int64
	for i := 0; i < b.pending.Len(); i++ {
		sum += RecordBytes(b.pending.Key(i), b.pending.Value(i))
	}
	if sum != b.pendingBytes {
		panic(fmt.Sprintf("spillbuf: %s: pendingBytes %d != record sum %d over %d records",
			where, b.pendingBytes, sum, b.pending.Len()))
	}
	if payload := b.pending.ArenaBytes(); sum != payload+int64(b.pending.Len())*recordOverhead {
		panic(fmt.Sprintf("spillbuf: %s: arena holds %d payload bytes, accounting expects %d",
			where, payload, sum-int64(b.pending.Len())*recordOverhead))
	}
}
