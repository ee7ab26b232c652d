package mr_test

import (
	"bytes"
	"testing"

	"mrtext/internal/cluster"
	"mrtext/internal/mr"
)

// TestShortTailJoinsLastSplit pins where a file's splits end: every block
// is a split, except that a last block shorter than a tenth of the block
// size joins the split before it.
func TestShortTailJoinsLastSplit(t *testing.T) {
	const block = 64 << 10
	cfg := cluster.Fast(2)
	cfg.BlockSize = block
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		size int64
		want []int64 // split lengths
	}{
		{"one-short-block", 100, []int64{100}},
		{"exact-blocks", 2 * block, []int64{block, block}},
		{"block-plus-15", block + 15, []int64{block + 15}},
		{"tail-just-short", 2*block + block/10 - 1, []int64{block, block + block/10 - 1}},
		{"tail-a-tenth", 2*block + block/10 + 1, []int64{block, block, block/10 + 1}},
	} {
		if err := c.FS.WriteFile(tc.name, bytes.Repeat([]byte("x\n"), int(tc.size/2)+1)[:tc.size]); err != nil {
			t.Fatal(err)
		}
		splits, err := mr.SplitsOf(c.FS, []string{tc.name})
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		var off int64
		for _, s := range splits {
			if s.Offset != off {
				t.Errorf("%s: split at %d, want %d", tc.name, s.Offset, off)
			}
			got = append(got, s.Len)
			off += s.Len
		}
		if len(got) != len(tc.want) || off != tc.size {
			t.Errorf("%s: splits %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: splits %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}
