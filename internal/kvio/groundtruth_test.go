package kvio

import (
	"fmt"
	"testing"

	"mrtext/internal/vdisk"
)

// gtBatch returns n records in emit order over four partitions, the first
// in the last partition, with keys both within and past the eight-byte
// prefix so a sort reaches the radix levels that read arena bytes and the
// insertion sort that finishes small buckets.
func gtBatch(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		k := (i * 2654435761) % 9973
		key := fmt.Sprintf("w%04d", k)
		if i%3 == 0 {
			key = fmt.Sprintf("example.org/page/%05d", k)
		}
		recs[i] = Record{Part: 3 - k%4, Key: []byte(key), Value: serialValue(i)}
	}
	return recs
}

// TestGroundTruthPackedSort pins the packed batch's allocations to the real
// compiler: a warm PackedRecords.Append and a warm Sorter.Sort on a batch
// of the same shape allocate nothing, and SortPacked allocates exactly the
// Sorter's scratch per call: two arrays, and a partition table grown once
// because the batch's first record is in its last partition. Under
// mrdebug every sort also builds its reference, so the sort pins hold only
// in a release build.
func TestGroundTruthPackedSort(t *testing.T) {
	recs := gtBatch(4096)
	base := pack(recs)

	var batch PackedRecords
	fill := func() {
		batch.Meta, batch.Arena = batch.Meta[:0], batch.Arena[:0]
		for _, r := range recs {
			batch.Append(r.Part, r.Key, r.Value)
		}
	}
	fill() // warm: the arrays grow to the batch
	if allocs := testing.AllocsPerRun(20, fill); allocs != 0 && !raceEnabled {
		t.Errorf("warm PackedRecords.Append: %.2f allocations per %d records, want 0", allocs, len(recs))
	}

	work := PackedRecords{Meta: make([]Meta, base.Len()), Arena: base.Arena}
	var s Sorter
	sort := func() {
		copy(work.Meta, base.Meta)
		s.Sort(work)
	}
	sort() // warm: the scratch grows to the batch
	if allocs := testing.AllocsPerRun(20, sort); allocs != 0 && !raceEnabled && !mrdebugBuild {
		t.Errorf("warm Sorter.Sort: %.2f allocations per batch, want 0", allocs)
	}
	requireSorted(t, work)

	const scratch = 3 // Sorter.parts, dest and buf
	allocs := testing.AllocsPerRun(20, func() {
		copy(work.Meta, base.Meta)
		SortPacked(work)
	})
	if allocs != scratch && !raceEnabled && !mrdebugBuild {
		t.Errorf("SortPacked: %.2f allocations per batch, want its %d scratch arrays", allocs, scratch)
	}
	requireSorted(t, work)
}

// requireSorted fails unless p is in spill order.
func requireSorted(t *testing.T, p PackedRecords) {
	t.Helper()
	for i := 1; i < p.Len(); i++ {
		if !p.Less(i-1, i) {
			t.Fatalf("records %d and %d out of order after the sort", i-1, i)
		}
	}
}

// TestGroundTruthPrefixAppend pins the prefix-compressed run writer's
// per-record Append to the real compiler: with its scratch warm and the
// records going into its write buffer (the measured appends stay under
// one buffer's worth, so nothing is flushed), it allocates nothing.
func TestGroundTruthPrefixAppend(t *testing.T) {
	w, err := NewPrefixRunWriter(vdisk.NewMem(), "run", 3)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 32*40)
	for j := range keys {
		keys[j] = []byte(fmt.Sprintf("word%06d", j))
	}
	i := 0
	step := func() {
		for j := 0; j < 40; j++ {
			if err := w.Append(1, keys[i], keys[i][4:]); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	step() // warm: the scratch and previous-key buffers grow
	if allocs := testing.AllocsPerRun(30, step); allocs != 0 && !raceEnabled {
		t.Errorf("prefix run Append: %.2f allocations per 40 records, want 0", allocs)
	}
	if w.buf.Buffered() != int(w.off) {
		t.Fatalf("the writer flushed during the measurement: %d bytes buffered of %d", w.buf.Buffered(), w.off)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroundTruthMergeGroups pins the loser tree to the real compiler: a
// warm Merger over four streams, walked group by group with NextGroup and
// NextValue, allocates nothing, so neither do its replays' comparisons.
func TestGroundTruthMergeGroups(t *testing.T) {
	const streams, groups = 4, 4000
	runs := make([][]Record, streams)
	for g := 0; g < groups; g++ {
		key := []byte(fmt.Sprintf("example.org/%06d", g))
		for r := range runs {
			if (g+r)%streams != 0 { // each group spans three of the streams
				runs[r] = append(runs[r], Record{Key: key, Value: serialValue(g)})
			}
		}
	}
	in := make([]Stream, streams)
	for r := range runs {
		in[r] = NewSliceStream(runs[r])
	}
	m, err := NewMerger(in)
	if err != nil {
		t.Fatal(err)
	}
	walked, values := 0, 0
	step := func() {
		for g := 0; g < 100; g++ {
			if _, ok, err := m.NextGroup(); !ok || err != nil {
				t.Fatalf("group %d: ok %v, err %v", walked, ok, err)
			}
			walked++
			for {
				_, ok, err := m.NextValue()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				values++
			}
		}
	}
	step() // warm: the leaves' and the group key's buffers grow
	if allocs := testing.AllocsPerRun(30, step); allocs != 0 && !raceEnabled {
		t.Errorf("Merger: %.2f allocations per 100 groups, want 0", allocs)
	}
	if walked != 3200 || values != 3*walked {
		t.Fatalf("walked %d groups and %d values, want 3200 and %d", walked, values, 3*3200)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}
