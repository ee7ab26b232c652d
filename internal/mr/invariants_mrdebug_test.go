//go:build mrdebug

package mr

import "testing"

// These tests exist only in mrdebug builds: they verify the runtime
// assertions fire on violated preconditions and stay silent otherwise.

func TestDebugAssert(t *testing.T) {
	debugAssert(true, "never fires")
	defer func() {
		if recover() == nil {
			t.Fatal("debugAssert(false) did not panic")
		}
	}()
	debugAssert(false, "seq %d", 3)
}
