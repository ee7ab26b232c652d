package mr

import (
	"fmt"
	"slices"

	"mrtext/internal/cluster"
	"mrtext/internal/dfs"
)

// Split is one map task's input: a byte range of a DFS file made of whole
// consecutive blocks (with the file's short last block folded in, see
// planSplits), and the nodes holding the most bytes of it. Hosts is never
// empty.
type Split struct {
	File   string
	Offset int64
	Len    int64
	Hosts  []int // nodes holding the most bytes of the split's blocks
}

// planSplits plans the map tasks over inputs for a cluster of slots map
// slots whose tasks each have a spill buffer of maxBytes (the job's M).
// Every file is planned on its own, in whole consecutive blocks:
//
//   - a file of no more blocks than slots gets one split per block, so
//     that all of them are read at once;
//   - a larger file gets the fewest splits that is a whole multiple of
//     slots (full waves) with no split above maxBytes, its blocks spread
//     evenly over them, unless maxBytes holds less than two blocks: then
//     it too gets one split per block.
//
// A split is never less than one block, whatever maxBytes is, so slots or
// maxBytes of 0 plan one split per block. A file's last block shorter than
// a tenth of the block size is not planned as a block: it joins the last
// split (Hadoop's SPLIT_SLOP of 1.1). No byte moves by the fold, since that
// split's last line already runs into such a tail, which as a task of its
// own would often read no line at all; nor does it change the split's
// hosts.
func planSplits(fs *dfs.DFS, inputs []string, slots int, maxBytes int64) ([]Split, error) {
	perSplit := max(1, int(maxBytes/fs.BlockSize())) // blocks one split may hold
	var splits []Split
	for _, in := range inputs {
		blocks, err := fs.Blocks(in)
		if err != nil {
			return nil, fmt.Errorf("mr: input %q: %w", in, err)
		}
		var tail int64
		if n := len(blocks); n > 1 && 10*blocks[n-1].Len < fs.BlockSize() {
			tail, blocks = blocks[n-1].Len, blocks[:n-1]
		}
		n := len(blocks)
		count := n
		if n > slots && slots > 0 && perSplit > 1 {
			need := (n + perSplit - 1) / perSplit
			count = (need + slots - 1) / slots * slots // < n, as slots < n and need <= ceil(n/2)
		}
		for i := range count {
			group := blocks[i*n/count : (i+1)*n/count]
			sp := Split{File: in, Offset: group[0].Offset, Hosts: heaviestHolders(group)}
			for _, b := range group {
				sp.Len += b.Len
			}
			splits = append(splits, sp)
		}
		if tail > 0 {
			splits[len(splits)-1].Len += tail
		}
	}
	return splits, nil
}

// heaviestHolders returns the nodes holding the most bytes of blocks, in
// the order the blocks' replica lists first name them: a single block's
// replicas, primary first. Every DFS block has a replica.
func heaviestHolders(blocks []dfs.BlockInfo) []int {
	var nodes []int
	var held []int64
	for _, b := range blocks {
		for _, node := range b.Replicas {
			i := slices.Index(nodes, node)
			if i < 0 {
				i = len(nodes)
				nodes, held = append(nodes, node), append(held, 0)
			}
			held[i] += b.Len
		}
	}
	most := slices.Max(held)
	var hosts []int
	for i, node := range nodes {
		if held[i] == most {
			hosts = append(hosts, node)
		}
	}
	return hosts
}

// splits plans j's map tasks on c from its inputs' blocks, c's map slots
// and j's spill buffer. j has its defaults applied.
func (j *Job) splits(c *cluster.Cluster) ([]Split, error) {
	return planSplits(c.FS, j.Inputs, c.TotalMapSlots(), j.SpillBufferBytes)
}
