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

func TestCheckInvariantsHealthy(t *testing.T) {
	b, err := New(1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(0, []byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	b.checkInvariants("test")
	b.checkPendingSum("test")
	b.mu.Unlock()
}

func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	newBuf := func() *Buffer {
		b, err := New(1<<20, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Append(0, []byte("key"), []byte("value")); err != nil {
			t.Fatal(err)
		}
		return b
	}

	b := newBuf()
	b.mu.Lock()
	b.pendingBytes = -1
	mustPanic(t, "negative pendingBytes", func() { b.checkInvariants("test") })
	b.mu.Unlock()

	b = newBuf()
	b.mu.Lock()
	b.seq = int(b.spills.Load()) + 1
	mustPanic(t, "seq", func() { b.checkInvariants("test") })
	b.mu.Unlock()

	b = newBuf()
	b.mu.Lock()
	b.pendingBytes += 7 // accounting no longer matches the record sum
	b.maxPending = b.pendingBytes
	mustPanic(t, "record sum", func() { b.checkPendingSum("test") })
	b.mu.Unlock()
}
