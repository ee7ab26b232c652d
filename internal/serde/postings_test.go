package serde

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// decodeSorted is the merge oracle's first half: every posting of lists,
// decoded and sorted by (Doc, Off).
func decodeSorted(lists [][]byte) ([]Posting, error) {
	var all []Posting
	for _, l := range lists {
		ps, err := DecodePostings(all, l)
		if err != nil {
			return nil, err
		}
		all = ps
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Doc != all[j].Doc {
			return all[i].Doc < all[j].Doc
		}
		return all[i].Off < all[j].Off
	})
	return all, nil
}

// postingsText is the text oracle: what AppendPostingsText must write.
func postingsText(ps []Posting) string {
	var b strings.Builder
	for i, p := range ps {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", p.Doc, p.Off)
	}
	b.WriteByte('\n')
	return b.String()
}

func encodeAll(lists [][]Posting) [][]byte {
	out := make([][]byte, len(lists))
	for i, ps := range lists {
		out[i] = EncodePostings(ps)
	}
	return out
}

// sortedRun returns n postings in (Doc, Off) order, offsets restarting at
// from, the way one input file's postings arrive.
func sortedRun(rng *rand.Rand, n int, from uint64) []Posting {
	ps := make([]Posting, n)
	off := from
	for i := range ps {
		off += uint64(rng.Intn(3)) // equal postings happen: one word twice on a line
		ps[i] = Posting{Doc: off >> 4, Off: off}
	}
	return ps
}

// splitRun cuts ps into consecutive lists of random length, empty ones
// included.
func splitRun(rng *rand.Rand, ps []Posting) [][]Posting {
	var lists [][]Posting
	for len(ps) > 0 {
		n := rng.Intn(min(len(ps), 5) + 1)
		lists = append(lists, ps[:n])
		ps = ps[n:]
	}
	return lists
}

// TestMergedPostingsShapes checks AppendMergedPostings against the decode →
// sort → encode oracle on every input shape, and that each shape takes the
// path it should: lists that continue one another are re-encoded in one
// pass and leave the sort scratch untouched; any other shape is sorted
// through it.
func TestMergedPostingsShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []struct {
		name     string
		lists    func() [][]Posting
		fastPath bool
	}{
		{"none", func() [][]Posting { return nil }, true},
		{"empty", func() [][]Posting { return [][]Posting{{}, {}} }, true},
		{"single", func() [][]Posting { return [][]Posting{sortedRun(rng, 40, 0)} }, true},
		{"single-posting-values", func() [][]Posting {
			var lists [][]Posting
			for _, p := range sortedRun(rng, 64, 0) {
				lists = append(lists, []Posting{p})
			}
			return lists
		}, true},
		{"in-order", func() [][]Posting { return splitRun(rng, sortedRun(rng, 60, 100)) }, true},
		{"in-order-with-empties", func() [][]Posting {
			return [][]Posting{{}, sortedRun(rng, 5, 0), {}, sortedRun(rng, 5, 1000), {}}
		}, true},
		{"two-files", func() [][]Posting {
			// Offsets restart per input file: the second file's lists
			// arrive after the first's but order before them.
			return append(splitRun(rng, sortedRun(rng, 30, 5000)), splitRun(rng, sortedRun(rng, 30, 0))...)
		}, false},
		{"overlapping", func() [][]Posting {
			return [][]Posting{sortedRun(rng, 20, 0), sortedRun(rng, 20, 10)}
		}, false},
		{"shuffled", func() [][]Posting {
			lists := splitRun(rng, sortedRun(rng, 60, 0))
			rng.Shuffle(len(lists), func(i, j int) { lists[i], lists[j] = lists[j], lists[i] })
			lists = append(lists, []Posting{{Doc: 0, Off: 0}}) // out of order at any shuffle
			return lists
		}, false},
		{"unsorted-single", func() [][]Posting {
			return [][]Posting{{{Doc: 3, Off: 50}, {Doc: 3, Off: 49}}}
		}, false},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				lists := encodeAll(sh.lists())
				want, err := decodeSorted(lists)
				if err != nil {
					t.Fatal(err)
				}
				prefix := []byte("prefix")
				got, scratch, err := AppendMergedPostings(append([]byte(nil), prefix...), lists, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(got, prefix) {
					t.Fatalf("dst prefix clobbered: %q", got)
				}
				if w := EncodePostings(want); !bytes.Equal(got[len(prefix):], w) {
					t.Fatalf("merged %x, oracle %x", got[len(prefix):], w)
				}
				if fast := len(scratch) == 0; len(want) > 0 && fast != sh.fastPath {
					t.Fatalf("one-pass path taken: %v, want %v", fast, sh.fastPath)
				}
			}
		})
	}
}

func TestAppendMergedPostingsCorrupt(t *testing.T) {
	good := EncodePostings([]Posting{{1, 2}, {3, 4}})
	for _, bad := range [][]byte{
		{},                 // no header
		{0x80},             // truncated header
		{5, 1, 1},          // count larger than the bytes can hold
		good[:len(good)-1], // last posting cut
		{2, 1, 1, 0x80, 0x80},
	} {
		for _, lists := range [][][]byte{{bad}, {good, bad}, {bad, good}} {
			dst := []byte("keep")
			got, _, err := AppendMergedPostings(dst, lists, nil)
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%x: err %v, want ErrCorrupt", lists, err)
			}
			if string(got) != "keep" {
				t.Errorf("%x: dst %q on error, want it as given", lists, got)
			}
		}
		if _, err := AppendPostingsText(nil, bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("text %x: err %v, want ErrCorrupt", bad, err)
		}
	}
}

func TestAppendPostingsText(t *testing.T) {
	for _, ps := range [][]Posting{nil, {{2, 7}}, {{2, 7}, {5, 0}}, {{0, 0}, {0, 0}, {1 << 40, 1<<64 - 1}}} {
		got, err := AppendPostingsText([]byte("w\t"), EncodePostings(ps))
		if err != nil {
			t.Fatal(err)
		}
		if want := "w\t" + postingsText(ps); string(got) != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
}

// FuzzPostings drives the posting codec with arbitrary bytes and with
// valid lists built from them. Arbitrary bytes must decode, merge and
// format to ErrCorrupt or to what the oracle says, never panic, and never
// size anything by a count the bytes cannot hold. Valid lists — in order,
// overlapping, shuffled, empty or single — must merge to the decode → sort
// → encode oracle byte for byte, on whichever path the kernel takes.
func FuzzPostings(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(EncodePostings([]Posting{{1, 5}, {3, 1}}), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint8(1))
	f.Add([]byte{3, 1, 9, 0, 2, 0xfe, 1, 1, 7}, uint8(2))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		// Arbitrary bytes: the whole input as one list, and the input cut
		// at every 0xfe into several.
		for _, lists := range [][][]byte{{data}, bytes.Split(data, []byte{0xfe})} {
			checkArbitrary(t, lists)
		}

		// Valid lists: three bytes per posting (doc, offset, list cut).
		var lists [][]Posting
		var cur []Posting
		for i := 0; i+2 < len(data); i += 3 {
			cur = append(cur, Posting{Doc: uint64(data[i] % 8), Off: uint64(data[i+1])})
			if data[i+2]&1 == 1 {
				lists = append(lists, cur)
				cur = nil
			}
			if data[i+2]&2 == 2 {
				lists = append(lists, nil) // an empty list
			}
		}
		lists = append(lists, cur)
		var all []Posting
		for _, l := range lists {
			all = append(all, l...)
		}
		sortPostings := func(ps []Posting) {
			sort.Slice(ps, func(i, j int) bool { return comparePostings(ps[i], ps[j]) < 0 })
		}
		switch shape % 3 {
		case 0: // in order: the sorted postings cut where the lists were
			sortPostings(all)
			rest := all
			for i := range lists {
				lists[i], rest = rest[:len(lists[i])], rest[len(lists[i]):]
			}
		case 1: // overlapping: each list sorted on its own
			for _, l := range lists {
				sortPostings(l)
			}
		}
		enc := encodeAll(lists)
		want, err := decodeSorted(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, scratch, err := AppendMergedPostings(nil, enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if w := EncodePostings(want); !bytes.Equal(got, w) {
			t.Fatalf("shape %d: merged %x, oracle %x", shape%3, got, w)
		}
		if shape%3 == 0 && len(scratch) != 0 {
			t.Fatal("in-order lists took the sorting path")
		}
		// The fallback alone, whatever the order: reverse the lists so
		// that, unless it is trivially sorted, it must sort.
		for i, j := 0, len(enc)-1; i < j; i, j = i+1, j-1 {
			enc[i], enc[j] = enc[j], enc[i]
		}
		if got, _, err = AppendMergedPostings(nil, enc, scratch); err != nil || !bytes.Equal(got, EncodePostings(want)) {
			t.Fatalf("reversed: merged %x err %v, oracle %x", got, err, EncodePostings(want))
		}
		text, err := AppendPostingsText(nil, got)
		if err != nil || string(text) != postingsText(want) {
			t.Fatalf("text %q err %v, want %q", text, err, postingsText(want))
		}
	})
}

// checkArbitrary holds the kernels to the oracle on lists that may be
// malformed. Bytes need not be canonical here, so merges are compared as
// postings, not as encodings.
func checkArbitrary(t *testing.T, lists [][]byte) {
	t.Helper()
	size := 0
	for _, l := range lists {
		size += len(l)
	}
	want, wantErr := decodeSorted(lists)
	got, scratch, err := AppendMergedPostings(nil, lists, nil)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("merge err %v, decode err %v", err, wantErr)
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) || !errors.Is(wantErr, ErrCorrupt) {
			t.Fatalf("merge err %v, decode err %v, want ErrCorrupt", err, wantErr)
		}
	} else {
		merged, derr := DecodePostings(nil, got)
		if derr != nil || len(merged) != len(want) {
			t.Fatalf("merged list decodes to %d postings (err %v), want %d", len(merged), derr, len(want))
		}
		for i := range want {
			if merged[i] != want[i] {
				t.Fatalf("posting %d: %v, want %v", i, merged[i], want[i])
			}
		}
	}
	// Two bytes per posting at least: nothing sized past what the input
	// holds, append's doubling aside.
	if cap(scratch) > 2*(size/2)+8 {
		t.Fatalf("scratch cap %d from %d input bytes", cap(scratch), size)
	}
	for _, l := range lists {
		ps, derr := DecodePostings(nil, l)
		text, err := AppendPostingsText(nil, l)
		if (err != nil) != (derr != nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
			t.Fatalf("text err %v, decode err %v", err, derr)
		}
		if err == nil && string(text) != postingsText(ps) {
			t.Fatalf("text %q, want %q", text, postingsText(ps))
		}
	}
}
