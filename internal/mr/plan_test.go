package mr

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"mrtext/internal/cluster"
	"mrtext/internal/dfs"
)

// checkPlan asserts the planner's contract for the splits of file on c,
// planned for slots map slots and a spill buffer of maxBytes:
//
//   - every byte of the file falls in exactly one split, in file order;
//   - every split is whole consecutive blocks, a short tail folded into
//     the last one;
//   - no split holds more than maxBytes of blocks unless it is one block,
//     and the blocks are spread evenly (split sizes differ by one block at
//     most);
//   - with more blocks than slots, the split count is the least multiple
//     of slots that keeps to maxBytes, or one split per block when
//     maxBytes holds less than two blocks;
//   - there are never fewer splits than min(blocks, slots);
//   - a split's hosts are exactly the nodes holding the most bytes of its
//     blocks.
func checkPlan(t testing.TB, c *cluster.Cluster, file string, slots int, maxBytes int64, splits []Split) {
	t.Helper()
	blocks, err := c.FS.Blocks(file)
	if err != nil {
		t.Fatal(err)
	}
	bs := c.FS.BlockSize()
	var size, tail int64
	for _, b := range blocks {
		size += b.Len
	}
	if n := len(blocks); n > 1 && 10*blocks[n-1].Len < bs {
		tail, blocks = blocks[n-1].Len, blocks[:n-1]
	}
	n := len(blocks)
	if n == 0 {
		if len(splits) != 0 {
			t.Fatalf("empty file: %d splits", len(splits))
		}
		return
	}

	var off int64
	next := 0 // the first block not yet in a split
	minBlocks, maxBlocks := n, 0
	for i, sp := range splits {
		if sp.File != file || sp.Offset != off {
			t.Fatalf("split %d is %s@%d, want %s@%d", i, sp.File, sp.Offset, file, off)
		}
		var held int64
		first := next
		for next < n && held < sp.Len {
			held += blocks[next].Len
			next++
		}
		whole := held
		if next == n {
			held += tail
		}
		if held != sp.Len || next == first {
			t.Fatalf("split %d (%d+%d bytes) is not whole blocks from block %d", i, sp.Offset, sp.Len, first)
		}
		if k := next - first; k > 1 && whole > maxBytes {
			t.Errorf("split %d holds %d blocks, %d bytes, over the %d-byte buffer", i, k, whole, maxBytes)
		}
		minBlocks, maxBlocks = min(minBlocks, next-first), max(maxBlocks, next-first)
		if want := heaviest(blocks[first:next]); !sameSet(sp.Hosts, want) || len(sp.Hosts) == 0 {
			t.Errorf("split %d hosts %v, want the heaviest holders %v", i, sp.Hosts, want)
		}
		off += sp.Len
	}
	if off != size || next != n {
		t.Fatalf("splits cover %d of %d bytes, %d of %d blocks", off, size, next, n)
	}
	if maxBlocks-minBlocks > 1 {
		t.Errorf("blocks spread unevenly: splits of %d to %d blocks", minBlocks, maxBlocks)
	}
	count := len(splits)
	if count < min(n, slots) {
		t.Errorf("%d splits of %d blocks for %d slots: fewer than min(blocks, slots)", count, n, slots)
	}
	per := max(1, int(maxBytes/bs)) // blocks a split may hold
	switch {
	case n <= slots || slots == 0 || per == 1:
		if count != n {
			t.Errorf("%d blocks, %d slots, %d per split: %d splits, want one per block", n, slots, per, count)
		}
	case count%slots != 0:
		t.Errorf("%d splits for %d slots: not whole waves", count, slots)
	case count > slots && (count-slots)*per >= n:
		t.Errorf("%d splits for %d slots: %d would keep to the buffer", count, slots, count-slots)
	}
}

// heaviest returns the nodes holding the most bytes of blocks.
func heaviest(blocks []dfs.BlockInfo) []int {
	held := map[int]int64{}
	var most int64
	for _, b := range blocks {
		for _, node := range b.Replicas {
			held[node] += b.Len
			most = max(most, held[node])
		}
	}
	var nodes []int
	for node, h := range held {
		if h == most {
			nodes = append(nodes, node)
		}
	}
	return nodes
}

func sameSet(a, b []int) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// planCluster is a DFS of the given block size spread over nodes with
// replication repl; the map slots a plan is made for are passed to
// planSplits directly.
func planCluster(t testing.TB, nodes, repl int, block int64) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Nodes: nodes, BlockSize: block, Replication: repl,
		MapSlotsPerNode: 1, ReduceSlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPlanSplitsTable pins the planner's splits on shapes named after what
// they show. The bench's logsum_fast shape, 96 blocks and a short tail on 8
// slots with a buffer of four blocks, plans 24 splits of four blocks: three
// full waves.
func TestPlanSplitsTable(t *testing.T) {
	const block = 1 << 10
	const tail = block/10 + 1 // the shortest last block that is not folded
	// rep repeats the lengths ls n times.
	rep := func(n int, ls ...int64) []int64 {
		var out []int64
		for range n {
			out = append(out, ls...)
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		size     int64
		slots    int
		maxBytes int64
		want     []int64 // split lengths, in file order
	}{
		{"fewer-blocks-than-slots", 5 * block, 8, 4 * block, rep(5, block)},
		{"as-many-blocks-as-slots", 8 * block, 8, 4 * block, rep(8, block)},
		{"logsum-fast", 96*block + 15, 8, 4 * block, append(rep(23, 4*block), 4*block+15)},
		// 25 splits of four blocks would do: 32 make four full waves.
		{"four-waves", 100 * block, 8, 4 * block, rep(4, append(rep(7, 3*block), 4*block)...)},
		{"buffer-of-one-block", 12 * block, 4, block, rep(12, block)},
		{"buffer-below-a-block", 12 * block, 4, block / 2, rep(12, block)},
		// Two blocks fit the buffer: 6 splits, so 8, the least multiple of
		// 4 at or above 6.
		{"buffer-not-whole-blocks", 12 * block, 4, 3*block - 1, []int64{block, 2 * block, block, 2 * block, block, 2 * block, block, 2 * block}},
		// Nine splits of two blocks would do: 16 make two full waves.
		{"second-wave", 17 * block, 8, 2 * block, append(rep(15, block), 2*block)},
		{"one-wave-of-uneven-splits", 10 * block, 8, 4 * block, []int64{block, block, block, 2 * block, block, block, block, 2 * block}},
		{"tail-folds-into-a-big-split", 40*block + tail - 2, 4, 10 * block, append(rep(3, 10*block), 10*block+tail-2)},
		{"tail-of-its-own", 8*block + tail, 16, 4 * block, append(rep(8, block), tail)},
		{"one-short-block", 100, 4, 4 * block, []int64{100}},
		{"empty", 0, 4, 4 * block, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := planCluster(t, 4, 2, block)
			if err := c.FS.WriteFile("f", bytes.Repeat([]byte("x\n"), int(tc.size/2)+1)[:tc.size]); err != nil {
				t.Fatal(err)
			}
			splits, err := planSplits(c.FS, []string{"f"}, tc.slots, tc.maxBytes)
			if err != nil {
				t.Fatal(err)
			}
			checkPlan(t, c, "f", tc.slots, tc.maxBytes, splits)
			var got []int64
			for _, sp := range splits {
				got = append(got, sp.Len)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("split lengths %v, want %v", got, tc.want)
			}
		})
	}
}

// TestPlanSplitsProperties checks the planner's contract (checkPlan) over
// random files, block sizes, replication, slot counts and buffers, and
// that a job's plan is made of its files' plans in input order.
func TestPlanSplitsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		block := int64(16 + rng.Intn(200))
		nodes := 1 + rng.Intn(6)
		c := planCluster(t, nodes, 1+rng.Intn(nodes), block)
		slots := 1 + rng.Intn(12)
		maxBytes := rng.Int63n(8*block + 1)
		var files []string
		for f := 0; f < 1+rng.Intn(3); f++ {
			name := string(rune('a' + f))
			size := rng.Int63n(60 * block)
			if err := c.FS.WriteFile(name, bytes.Repeat([]byte{'z'}, int(size))); err != nil {
				t.Fatal(err)
			}
			files = append(files, name)
		}
		all, err := planSplits(c.FS, files, slots, maxBytes)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			one, err := planSplits(c.FS, []string{name}, slots, maxBytes)
			if err != nil {
				t.Fatal(err)
			}
			checkPlan(t, c, name, slots, maxBytes, one)
			if len(all) < len(one) || !slices.EqualFunc(all[:len(one)], one, func(a, b Split) bool {
				return a.File == b.File && a.Offset == b.Offset && a.Len == b.Len && slices.Equal(a.Hosts, b.Hosts)
			}) {
				t.Fatalf("case %d: file %s's plan is not its part of the job's plan", i, name)
			}
			all = all[len(one):]
		}
		if t.Failed() {
			t.Fatalf("case %d: block %d, %d nodes, %d slots, buffer %d", i, block, nodes, slots, maxBytes)
		}
	}
}
