//go:build mrdebug

package spillbuf

import (
	"strings"
	"testing"

	"mrtext/internal/kvio"
)

// These tests exist only in mrdebug builds: they verify the invariant
// checks fire on corrupted state and stay silent on healthy state.

func mustPanic(t *testing.T, wantSubstr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", wantSubstr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, wantSubstr) {
			t.Fatalf("panic = %v, want message containing %q", r, wantSubstr)
		}
	}()
	f()
}

func newTestBuffer(t *testing.T) *Buffer {
	t.Helper()
	b, err := New(1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(0, []byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckInvariantsHealthy(t *testing.T) {
	b := newTestBuffer(t)
	b.mu.Lock()
	b.checkInvariants("test")
	b.checkPendingSum("test")
	b.mu.Unlock()
}

func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	b := newTestBuffer(t)
	b.mu.Lock()
	b.inflight.Store(-1)
	mustPanic(t, "negative inflight", func() { b.checkInvariants("test") })
	b.mu.Unlock()

	b = newTestBuffer(t)
	b.mu.Lock()
	b.seq = int(b.spills.Load()) + 1
	mustPanic(t, "seq", func() { b.checkInvariants("test") })
	b.mu.Unlock()

	b = newTestBuffer(t)
	b.mu.Lock()
	b.pendingBytes += 7 // accounting no longer matches the record sum
	mustPanic(t, "record sum", func() { b.checkPendingSum("test") })
	b.mu.Unlock()

	b = newTestBuffer(t)
	b.mu.Lock()
	b.pending.Parts = append(b.pending.Parts, b.pending.Parts[0]) // partition 0's record also filed under 1
	b.pending.Parts[0] = nil
	mustPanic(t, "filed under", func() { b.checkPendingSum("test") })
	b.mu.Unlock()

	b = newTestBuffer(t)
	b.mu.Lock()
	b.hasReady, b.ready.Bytes = true, 1 // a second cut would overwrite a spill nobody has picked up
	mustPanic(t, "waits to be picked up", func() { b.checkPendingSum("test") })
	b.mu.Unlock()
}

// TestRegionsCatchBadReturn: a region may be in one place at a time. One
// that comes back while a slot still holds it would be handed out twice,
// and one that comes back to a full pair is one more than a buffer has
// out.
func TestRegionsCatchBadReturn(t *testing.T) {
	grown := func() kvio.Region {
		var r kvio.Region
		r.Append(0, []byte("key"), []byte("value"))
		return r
	}
	var h Regions
	r := grown()
	h.put(r)
	mustPanic(t, "returned twice", func() { h.put(r) })

	h = Regions{}
	h.put(grown())
	h.put(grown())
	mustPanic(t, "full pair", func() { h.put(grown()) })
}
