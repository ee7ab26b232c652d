package mr

import (
	"bytes"
	"fmt"
	"testing"
)

// TestGroundTruthBlockScan pins blockScanner.Next's allocations to the
// real compiler: once the arena is warm, the
// per-line steady state of the batched reader must be allocation-free,
// including refills and partial-line slides (the corpus is scanned with an
// arena far smaller than the split, so every measured batch crosses
// several fill boundaries). DFS block transitions do allocate (replica
// ordering, failover state) but are per-block, not per-line — the corpus
// here is a single block so the scanner's own loop is isolated; the
// ingest benchmark asserts the amortized allocs/record over multi-block
// corpora instead. CI runs this plain and under -race; race
// instrumentation inflates allocation counts, so the ==0 assertion is
// relaxed there (raceEnabled), as in every TestGroundTruth* test.
func TestGroundTruthBlockScan(t *testing.T) {
	var data bytes.Buffer
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&data, "record-%04d the quick brown fox jumps over the lazy dog\n", i)
	}
	c := buildFS(t, data.Bytes(), int64(data.Len())) // one block, one split
	splits, err := SplitsOf(c.FS, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 1 {
		t.Fatalf("%d splits, want 1", len(splits))
	}
	sc, err := openBlockLines(c.FS, splits[0], 0, 16<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	lines := 0
	step := func() {
		for drained := 0; drained < 200; drained++ {
			_, _, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("corpus exhausted mid-measurement; grow it")
			}
			lines++
		}
	}
	step() // warm: first fill and arena sizing happen here
	allocs := testing.AllocsPerRun(15, step)
	if allocs != 0 && !raceEnabled {
		t.Errorf("blockScanner.Next steady state: %.2f allocs per 200-line batch, want 0", allocs)
	}
	if lines == 0 {
		t.Fatal("measured zero lines")
	}
}
