package mr

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// scanSource drains one reader and returns its (offset, line) stream plus
// the final consumed count.
func scanSource(t testing.TB, src LineReader) (lines []string, offsets []int64, consumed int64) {
	t.Helper()
	for {
		off, line, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		lines = append(lines, string(line))
		offsets = append(offsets, off)
	}
	consumed = src.Consumed()
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	return lines, offsets, consumed
}

// requireIdentical asserts the batched scanner produces a byte-identical
// (offset, line, consumed) stream to the serial lineScanner over every
// split of the file, at the given arena chunk size. It returns the batched
// reader's lines across all splits, each followed by a newline.
func requireIdentical(t testing.TB, data []byte, blockSize int64, chunk int) (rebuilt []byte) {
	t.Helper()
	c := buildFS(t, data, blockSize)
	splits, err := computeSplits(c.FS, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	for si, sp := range splits {
		serial, err := openLines(c.FS, sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantLines, wantOffs, wantConsumed := scanSource(t, serial)
		batched, err := openBlockLines(c.FS, sp, 0, chunk)
		if err != nil {
			t.Fatal(err)
		}
		gotLines, gotOffs, gotConsumed := scanSource(t, batched)
		if len(gotLines) != len(wantLines) {
			t.Fatalf("split %d (block %d, chunk %d): %d lines batched, %d serial\nbatched %q\nserial  %q",
				si, blockSize, chunk, len(gotLines), len(wantLines), gotLines, wantLines)
		}
		for i := range gotLines {
			if gotLines[i] != wantLines[i] || gotOffs[i] != wantOffs[i] {
				t.Fatalf("split %d (block %d, chunk %d) line %d: batched (%d, %q), serial (%d, %q)",
					si, blockSize, chunk, i, gotOffs[i], gotLines[i], wantOffs[i], wantLines[i])
			}
		}
		if gotConsumed != wantConsumed {
			t.Fatalf("split %d (block %d, chunk %d): consumed %d batched, %d serial",
				si, blockSize, chunk, gotConsumed, wantConsumed)
		}
		for _, line := range gotLines {
			rebuilt = append(append(rebuilt, line...), '\n')
		}
	}
	return rebuilt
}

// FuzzBlockScanner drives the same oracle comparison from arbitrary bytes,
// block sizes and arena chunks, and additionally requires that the splits'
// lines concatenate back to the input: nothing dropped, duplicated or
// reordered at any block or chunk boundary. The seeds are the boundary
// shapes TestBlockScannerEdgeCorpora curates.
func FuzzBlockScanner(f *testing.F) {
	f.Add([]byte(""), uint16(5), uint16(16))
	f.Add([]byte("first\nsecond\nlast-no-newline"), uint16(6), uint16(16))
	f.Add([]byte("hello\nworld\n"), uint16(6), uint16(64)) // newline exactly on the block boundary
	f.Add([]byte("ab\nzzzzzzzz\n"), uint16(4), uint16(32)) // one line spanning three blocks
	f.Add([]byte("a\n\n\nb\n"), uint16(3), uint16(1))
	f.Add(append(bytes.Repeat([]byte("y"), 100), '\n'), uint16(64), uint16(16)) // line longer than the chunk
	f.Fuzz(func(t *testing.T, data []byte, blockSize, chunk uint16) {
		if len(data) > 8<<10 {
			t.Skip("split count is len/blockSize; keep one input cheap")
		}
		if blockSize == 0 {
			blockSize = 1
		}
		if len(data) == 0 {
			c := buildFS(t, data, int64(blockSize))
			if splits, err := computeSplits(c.FS, []string{"f"}); err != nil || len(splits) != 0 {
				t.Fatalf("empty input: %d splits, err %v; want none, nil", len(splits), err)
			}
			return
		}
		rebuilt := requireIdentical(t, data, int64(blockSize), int(chunk))
		if data[len(data)-1] != '\n' {
			data = append(data[:len(data):len(data)], '\n')
		}
		if !bytes.Equal(rebuilt, data) {
			t.Fatalf("block %d chunk %d: lines concatenate to %q, input %q", blockSize, chunk, rebuilt, data)
		}
	})
}

// TestBlockScannerMatchesLineScanner is the tentpole equivalence property:
// over random corpora, block sizes and arena chunk sizes (including chunks
// far smaller than both lines and blocks, which force mid-line refills,
// slides and arena growth), the batched reader's (offset, line, consumed)
// stream is identical to the serial scanner's on every split — the
// one-byte-early discard rule and cross-block line completion included.
func TestBlockScannerMatchesLineScanner(t *testing.T) {
	f := func(seed int64, blockRaw, chunkRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		blockSize := int64(blockRaw%61) + 3 // 3..63: boundaries everywhere
		chunk := int(chunkRaw%40) + 1       // 1..40: forces growth and tail reads
		var data bytes.Buffer
		n := 10 + rng.Intn(50)
		for i := 0; i < n; i++ {
			data.WriteString(fmt.Sprintf("line%02d-%s", i, bytes.Repeat([]byte{'x'}, rng.Intn(20))))
			if rng.Intn(8) > 0 || i == n-1 && rng.Intn(2) == 0 {
				data.WriteByte('\n') // occasionally omit, incl. at EOF
			}
		}
		requireIdentical(t, data.Bytes(), blockSize, chunk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBlockScannerEdgeCorpora pins the curated boundary cases from the
// lineScanner suite against the batched reader at adversarial chunk sizes.
func TestBlockScannerEdgeCorpora(t *testing.T) {
	long := bytes.Repeat([]byte("z"), 100)
	corpora := [][]byte{
		[]byte("alpha\nbeta\ngamma\ndelta\n"),
		[]byte("first\nsecond\nlast-no-newline"),
		[]byte("a\n\n\nb\n"),
		[]byte("hello\nworld\n"),
		append([]byte("ab\n"), append(long, '\n')...), // line spanning many blocks
		[]byte("\n"),
		[]byte("x"),
		bytes.Repeat([]byte("\n"), 9),
	}
	for _, data := range corpora {
		for _, blockSize := range []int64{3, 5, 6, 7, 64} {
			for _, chunk := range []int{1, 2, 16, 64 << 10} {
				requireIdentical(t, data, blockSize, chunk)
			}
		}
	}
}

// TestBlockScannerDefaultChunk runs the equivalence at the production
// chunk size, where whole splits fit in one arena read.
func TestBlockScannerDefaultChunk(t *testing.T) {
	var data bytes.Buffer
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&data, "record-%04d %s\n", i, bytes.Repeat([]byte("w"), rng.Intn(30)))
	}
	requireIdentical(t, data.Bytes(), 4<<10, 1<<20)
}

// TestBlockScannerArenaAliasing pins the ownership contract: the line
// returned by Next aliases the scanner's arena (no per-line copy).
func TestBlockScannerArenaAliasing(t *testing.T) {
	c := buildFS(t, []byte("aaaa\nbbbb\n"), 64)
	splits, err := computeSplits(c.FS, []string{"f"})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := openBlockLines(c.FS, splits[0], 0, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	_, line, ok, err := sc.Next()
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if &line[0] != &sc.buf[0] {
		t.Error("returned line does not alias the arena")
	}
}
