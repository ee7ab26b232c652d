package vdisk

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// writeSizes decodes a write-size sequence from ops: each byte picks a
// size from 0 to several Mem chunks, with the sizes around a chunk
// boundary well represented.
func writeSizes(ops []byte) []int {
	sizes := make([]int, 0, len(ops))
	for _, b := range ops {
		n := int(b >> 2)
		switch b & 3 {
		case 0: // tiny
		case 1: // around one chunk
			n = memMaxChunk - 32 + n
		case 2: // up to a few chunks
			n *= memMaxChunk / 16
		case 3: // one DFS-block-like write
			n = 2*memMaxChunk + n*97
		}
		sizes = append(sizes, n)
	}
	return sizes
}

// pattern returns n bytes that differ from those at other offsets, so a
// misplaced byte shows.
func pattern(off, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		x := uint32(off + i)
		p[i] = byte(x ^ x>>8 ^ x>>16)
	}
	return p
}

// checkMemFile writes one file with the given write sizes, checks it
// against the flat slice the same writes make — Size, Open, OpenSection
// over every range between chunk boundaries and a few inner offsets, reads
// with small buffers — then renames it, and removes a second file while
// its writer is open.
func checkMemFile(t *testing.T, sizes []int) {
	t.Helper()
	d := NewMem()
	w, err := d.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, n := range sizes {
		p := pattern(len(want), n)
		if k, err := w.Write(p); k != n || err != nil {
			t.Fatalf("write %d: %d, %v", n, k, err)
		}
		want = append(want, p...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if size, err := d.Size("f"); err != nil || size != int64(len(want)) {
		t.Fatalf("Size = %d, %v; want %d", size, err, len(want))
	}
	if got := readAll(t, d, "f"); !bytes.Equal(got, want) {
		t.Fatalf("Open reads %d bytes that differ from the %d written", len(got), len(want))
	}

	// Every range between the chunk boundaries, the ends and a byte either
	// side of each.
	f := d.files["f"]
	points := map[int64]bool{0: true, f.size: true}
	var at int64
	for _, c := range f.chunks {
		if cap(c) != len(c) && at+int64(len(c)) != f.size {
			t.Fatalf("chunk at %d is %d of %d bytes and not the last", at, len(c), cap(c))
		}
		at += int64(len(c))
		for _, p := range []int64{at - 1, at, at + 1} {
			if p >= 0 && p <= f.size {
				points[p] = true
			}
		}
	}
	for off := range points {
		for end := range points {
			if end < off {
				continue
			}
			r, err := d.OpenSection("f", off, end-off)
			if err != nil {
				t.Fatalf("section [%d,%d): %v", off, end, err)
			}
			got, err := io.ReadAll(r)
			if err != nil || !bytes.Equal(got, want[off:end]) {
				t.Fatalf("section [%d,%d) reads %d bytes (%v), not the file's", off, end, len(got), err)
			}
			r.Close()
		}
	}
	if _, err := d.OpenSection("f", 0, f.size+1); err == nil {
		t.Fatal("a section past the end opened")
	}
	// Small reads cross every chunk boundary.
	r, err := d.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	buf := make([]byte, 1000)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("1000-byte reads differ from the file")
	}

	if err := d.Rename("f", "g"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Open("f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("renamed-away name opens: %v", err)
	}
	if got := readAll(t, d, "g"); !bytes.Equal(got, want) {
		t.Fatal("renamed file differs")
	}

	// A writer removed while open publishes nothing, not even over a file
	// a second writer has since made under its name.
	stale, err := d.Create("h")
	if err != nil {
		t.Fatal(err)
	}
	stale.Write(want)
	if err := d.Remove("h"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Open("h"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("removed open file opens: %v", err)
	}
	fresh, err := d.Create("h")
	if err != nil {
		t.Fatalf("re-creating a removed open file: %v", err)
	}
	fresh.Write([]byte("fresh"))
	if err := stale.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Open("h"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("the removed writer's Close published: %v", err)
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, d, "h"); string(got) != "fresh" {
		t.Fatalf("h holds %d bytes, want the second writer's", len(got))
	}
}

// TestMemFileMatchesOracle runs checkMemFile on random write sequences.
func TestMemFileMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		ops := make([]byte, rng.Intn(8))
		rng.Read(ops)
		checkMemFile(t, writeSizes(ops))
	}
}

// FuzzMemFile is TestMemFileMatchesOracle on write sequences the fuzzer
// picks.
func FuzzMemFile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 5, 0, 3})
	f.Add([]byte{255, 2, 2, 1, 0, 0, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 8 {
			ops = ops[:8]
		}
		checkMemFile(t, writeSizes(ops))
	})
}

// TestChunksLimitAndReuse: a Chunks with a Limit, filled to it by writes
// of any sizes and Reset, as the DFS writer fills one block after another,
// holds what was written, never holds more capacity than the limit, and
// after the first fill allocates nothing more.
func TestChunksLimitAndReuse(t *testing.T) {
	const limit = 1 << 20
	rng := rand.New(rand.NewSource(2))
	c := Chunks{Limit: limit}
	firstChunks := 0
	for block := 0; block < 6; block++ {
		var want []byte
		for len(want) < limit {
			n := min(rng.Intn(3*memMaxChunk)+1, limit-len(want))
			p := pattern(len(want)+block, n)
			c.Write(p)
			want = append(want, p...)
		}
		got := bytes.Join(c.Chunks(), nil)
		if !bytes.Equal(got, want) || c.Len() != limit {
			t.Fatalf("block %d: Chunks hold %d bytes that differ from the %d written", block, len(got), len(want))
		}
		total := 0
		for _, ch := range c.chunks {
			total += cap(ch)
		}
		if total > limit {
			t.Fatalf("block %d: %d bytes of chunks for a %d-byte limit", block, total, limit)
		}
		if block > 0 && len(c.chunks) != firstChunks {
			t.Fatalf("block %d: %d chunks, the first block made %d", block, len(c.chunks), firstChunks)
		}
		firstChunks = len(c.chunks)
		c.Reset()
	}
}

// TestGroundTruthMemBlockWrite: a block-sized first write to a Mem file is
// kept as one chunk of exactly its size — one allocation of the block's
// bytes, none of regrowth — and writes of 64 KiB, as the runtime's
// buffered writers make them, are kept as exact 64 KiB chunks.
func TestGroundTruthMemBlockWrite(t *testing.T) {
	const block = 1 << 20
	d := NewMem()
	data := pattern(0, block)
	w, err := d.Create("blk")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.Write(data)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew < block || grew > block+4<<10 {
		t.Errorf("a %d-byte write allocated %d bytes, want one chunk of the block", block, grew)
	}
	w.Close()
	if f := d.files["blk"]; len(f.chunks) != 1 || cap(f.chunks[0]) != block {
		t.Errorf("block kept as %d chunks, first of capacity %d; want one of %d", len(f.chunks), cap(f.chunks[0]), block)
	}

	w, err = d.Create("runs")
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < block; off += memMaxChunk {
		w.Write(data[off : off+memMaxChunk])
	}
	w.Close()
	for i, c := range d.files["runs"].chunks {
		if len(c) != memMaxChunk || cap(c) != memMaxChunk {
			t.Fatalf("chunk %d holds %d of %d bytes, want exactly %d", i, len(c), cap(c), memMaxChunk)
		}
	}
}
