package mr

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mrtext/internal/cluster"
)

// buildFS writes data as one DFS file over a cluster with the given block
// size and returns the cluster.
func buildFS(t testing.TB, data []byte, blockSize int64) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Nodes: 3, BlockSize: blockSize, Replication: 1,
		MapSlotsPerNode: 1, ReduceSlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	return c
}

// scanAll reads every line of every split and returns them with offsets.
func scanAll(t *testing.T, c *cluster.Cluster) (lines []string, offsets []int64) {
	t.Helper()
	splits, err := computeSplits(c.FS, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range splits {
		sc, err := openLines(c.FS, sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		for {
			off, line, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			lines = append(lines, string(line))
			offsets = append(offsets, off)
		}
		sc.Close()
	}
	return lines, offsets
}

// TestSplitBoundaryExactlyOnce is the record-reader invariant: regardless
// of where block boundaries fall, every input line is processed exactly
// once, by the split containing its first byte.
func TestSplitBoundaryExactlyOnce(t *testing.T) {
	f := func(seed int64, blockRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		blockSize := int64(blockRaw%61) + 3 // 3..63 bytes: boundaries everywhere
		var want []string
		var data bytes.Buffer
		n := 20 + rng.Intn(60)
		for i := 0; i < n; i++ {
			line := fmt.Sprintf("line%02d-%s", i, string(bytes.Repeat([]byte{'x'}, rng.Intn(12))))
			want = append(want, line)
			data.WriteString(line)
			data.WriteByte('\n')
		}
		c := buildFS(t, data.Bytes(), blockSize)
		got, _ := scanAll(t, c)
		if len(got) != len(want) {
			return false
		}
		seen := map[string]int{}
		for _, l := range got {
			seen[l]++
		}
		for _, l := range want {
			if seen[l] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSplitOffsetsAreLineStarts(t *testing.T) {
	data := []byte("alpha\nbeta\ngamma\ndelta\n")
	c := buildFS(t, data, 7)
	lines, offsets := scanAll(t, c)
	wantOffsets := map[string]int64{"alpha": 0, "beta": 6, "gamma": 11, "delta": 17}
	if len(lines) != 4 {
		t.Fatalf("lines %v", lines)
	}
	for i, l := range lines {
		if offsets[i] != wantOffsets[l] {
			t.Errorf("line %q offset %d want %d", l, offsets[i], wantOffsets[l])
		}
	}
}

func TestNoTrailingNewline(t *testing.T) {
	data := []byte("first\nsecond\nlast-no-newline")
	c := buildFS(t, data, 8)
	lines, _ := scanAll(t, c)
	if len(lines) != 3 || lines[len(lines)-1] != "last-no-newline" {
		t.Errorf("lines %v", lines)
	}
}

func TestEmptyLinesPreserved(t *testing.T) {
	data := []byte("a\n\n\nb\n")
	c := buildFS(t, data, 3)
	lines, _ := scanAll(t, c)
	if len(lines) != 4 {
		t.Fatalf("lines %q", lines)
	}
	count := map[string]int{}
	for _, l := range lines {
		count[l]++
	}
	if count[""] != 2 || count["a"] != 1 || count["b"] != 1 {
		t.Errorf("lines %q", lines)
	}
}

func TestBoundaryExactlyAtNewline(t *testing.T) {
	// Block size 6: "hello\n" fills block 0 exactly; "world\n" starts at
	// the first byte of block 1 and must belong to split 1 (and only it).
	data := []byte("hello\nworld\n")
	c := buildFS(t, data, 6)
	splits, err := computeSplits(c.FS, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 {
		t.Fatalf("%d splits", len(splits))
	}
	for i, want := range []string{"hello", "world"} {
		sc, err := openLines(c.FS, splits[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		_, line, ok, err := sc.Next()
		if err != nil || !ok || string(line) != want {
			t.Errorf("split %d: %q ok=%v err=%v", i, line, ok, err)
		}
		if _, _, ok, _ := sc.Next(); ok {
			t.Errorf("split %d has extra lines", i)
		}
		sc.Close()
	}
}

func TestLineSpanningThreeBlocks(t *testing.T) {
	// One long line crossing several tiny blocks belongs entirely to the
	// split holding its first byte.
	long := bytes.Repeat([]byte("z"), 25)
	data := append([]byte("ab\n"), append(long, '\n')...)
	c := buildFS(t, data, 5)
	lines, _ := scanAll(t, c)
	if len(lines) != 2 {
		t.Fatalf("lines %q", lines)
	}
	found := false
	for _, l := range lines {
		if l == string(long) {
			found = true
		}
	}
	if !found {
		t.Error("long line missing or split")
	}
}

func TestConsumedTracksBytes(t *testing.T) {
	data := []byte("aaaa\nbbbb\ncccc\n")
	c := buildFS(t, data, int64(len(data)))
	splits, _ := computeSplits(c.FS, []string{"f"})
	sc, err := openLines(c.FS, splits[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	sc.Next()
	if sc.Consumed() != 5 {
		t.Errorf("consumed %d after one line", sc.Consumed())
	}
	sc.Next()
	sc.Next()
	if sc.Consumed() != int64(len(data)) {
		t.Errorf("consumed %d after all lines", sc.Consumed())
	}
}

func TestComputeSplitsErrors(t *testing.T) {
	c := buildFS(t, []byte("x\n"), 4)
	if _, err := computeSplits(c.FS, []string{"missing"}); err == nil {
		t.Error("missing input accepted")
	}
}
