//go:build mrdebug

package spillbuf

import (
	"fmt"

	"mrtext/internal/kvio"
)

// This file holds the debug-build invariant checks of the spill buffer.
// They compile in only under -tags mrdebug; the release build links the
// no-op twins in invariants_off.go, so the hot path pays nothing. They run
// where the lock is held anyway — at the hand-off and at Release — never
// per Append.

// debugBuild says whether the checks are compiled in.
const debugBuild = true

// checkInvariants asserts the O(1) structural invariants of the state mu
// guards (not the pending region, which is the producer's). The caller
// must hold b.mu.
func (b *Buffer) checkInvariants(where string) {
	inflight := b.inflight.Load()
	if inflight < 0 {
		panic(fmt.Sprintf("spillbuf: %s: negative inflight %d", where, inflight))
	}
	if spills := b.spills.Load(); int64(b.seq) != spills {
		panic(fmt.Sprintf("spillbuf: %s: seq %d != spills %d", where, b.seq, spills))
	}
	if inflight > b.spillBytes {
		panic(fmt.Sprintf("spillbuf: %s: inflight %d exceeds total spilled bytes %d",
			where, inflight, b.spillBytes))
	}
	if b.maxPending > b.spillBytes {
		panic(fmt.Sprintf("spillbuf: %s: largest spill %d exceeds total spilled bytes %d", where, b.maxPending, b.spillBytes))
	}
	if b.hasReady && b.parked.Load() {
		panic(fmt.Sprintf("spillbuf: %s: a spill is ready while the consumer is marked parked", where))
	}
	if b.hasReady != (b.ready.Bytes > 0) {
		panic(fmt.Sprintf("spillbuf: %s: ready slot inconsistent: hasReady %v, %d bytes", where, b.hasReady, b.ready.Bytes))
	}
}

// checkPendingSum asserts the O(n) accounting invariants of the pending
// region as it is cut: no spill is waiting in the ready slot it is about
// to fill, pendingBytes equals the sum of the records' charges partition
// by partition, every record is filed under its own partition, and the
// arena holds exactly the records' payloads. The caller must hold b.mu.
func (b *Buffer) checkPendingSum(where string) {
	if b.hasReady {
		panic(fmt.Sprintf("spillbuf: %s: cutting a spill while spill %d waits to be picked up", where, b.ready.Seq))
	}
	var sum int64
	records := 0
	for p := range b.pending.Parts {
		recs := b.pending.Part(p)
		for i := 0; i < recs.Len(); i++ {
			if recs.Part(i) != p {
				panic(fmt.Sprintf("spillbuf: %s: record of partition %d filed under %d", where, recs.Part(i), p))
			}
			sum += RecordBytes(recs.Key(i), recs.Value(i))
		}
		records += recs.Len()
	}
	if sum != b.pendingBytes {
		panic(fmt.Sprintf("spillbuf: %s: pendingBytes %d != record sum %d over %d records",
			where, b.pendingBytes, sum, records))
	}
	if payload := int64(len(b.pending.Arena)); sum != payload+int64(records)*recordOverhead {
		panic(fmt.Sprintf("spillbuf: %s: arena holds %d payload bytes, accounting expects %d",
			where, payload, sum-int64(records)*recordOverhead))
	}
}

// checkReturn asserts that a region coming back finds its home pair as it
// should: no slot already holds its arena — the same arena in both slots
// would be handed out twice — and one slot is empty for it, since a buffer
// has at most RegionsPerBuffer regions out. The buffer holds b.mu.
func (h *Regions) checkReturn(r kvio.Region) {
	full := 0
	for i := range h {
		if cap(h[i].Arena) == 0 {
			continue
		}
		full++
		if &h[i].Arena[:1][0] == &r.Arena[:1][0] {
			panic(fmt.Sprintf("spillbuf: region returned twice (slot %d holds its arena)", i))
		}
	}
	if full == len(h) {
		panic("spillbuf: a region came back to a full pair of slots")
	}
}
