package mr

import (
	"fmt"

	"mrtext/internal/dfs"
)

// Split is one map task's input slice: a byte range of a DFS file,
// typically one block, with the nodes holding that block.
type Split struct {
	File   string
	Offset int64
	Len    int64
	Hosts  []int // nodes holding a local replica
}

// computeSplits turns every block of every input file into a Split.
func computeSplits(fs *dfs.DFS, inputs []string) ([]Split, error) {
	var splits []Split
	for _, in := range inputs {
		blocks, err := fs.Blocks(in)
		if err != nil {
			return nil, fmt.Errorf("mr: input %q: %w", in, err)
		}
		for _, b := range blocks {
			splits = append(splits, Split{File: in, Offset: b.Offset, Len: b.Len, Hosts: b.Replicas})
		}
	}
	return splits, nil
}
