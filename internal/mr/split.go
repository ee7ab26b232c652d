package mr

import (
	"fmt"

	"mrtext/internal/dfs"
)

// Split is one map task's input slice: a byte range of a DFS file, one
// block (with the file's short last block folded in, see computeSplits),
// with the nodes holding that block.
type Split struct {
	File   string
	Offset int64
	Len    int64
	Hosts  []int // nodes holding a local replica
}

// computeSplits turns every block of every input file into a Split, except
// that a file's last block shorter than a tenth of the block size joins the
// split before it (Hadoop's SPLIT_SLOP of 1.1). No byte moves by the fold:
// the previous split's last line already runs into such a tail, which as a
// task of its own would often read no line at all.
func computeSplits(fs *dfs.DFS, inputs []string) ([]Split, error) {
	var splits []Split
	for _, in := range inputs {
		blocks, err := fs.Blocks(in)
		if err != nil {
			return nil, fmt.Errorf("mr: input %q: %w", in, err)
		}
		for i, b := range blocks {
			if i > 0 && i == len(blocks)-1 && 10*b.Len < fs.BlockSize() {
				splits[len(splits)-1].Len += b.Len
				continue
			}
			splits = append(splits, Split{File: in, Offset: b.Offset, Len: b.Len, Hosts: b.Replicas})
		}
	}
	return splits, nil
}
