//go:build mrdebug

package spillbuf

import (
	"strings"
	"testing"
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

// TestPoolCatchesDoubleReturn: a region may be in one place at a time. One
// that comes back while the pool still holds it would be handed to two
// buffers.
func TestPoolCatchesDoubleReturn(t *testing.T) {
	p := NewPool(4)
	r := p.get()
	r.Append(0, []byte("key"), []byte("value"))
	p.get() // keep the count of regions out above what comes back
	p.put(r)
	mustPanic(t, "returned to the pool twice", func() { p.put(r) })

	p = NewPool(4)
	mustPanic(t, "more regions than it gave out", func() { p.put(r) })
}
