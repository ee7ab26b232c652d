package kvio

// Property tests for the packed spill path: the prefix index sort and
// the loser-tree merge must be observationally identical to the
// reference implementations (SortRecords, ReferenceMerger) — same
// record order including stability, byte-identical run files in both
// on-disk formats, and identical group/value sequences out of the
// merge, across adversarial key distributions.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"mrtext/internal/vdisk"
)

// A generator produces one workload of records; values carry a serial
// number so stability violations are observable.
type generator struct {
	name string
	gen  func(r *rand.Rand, n int) []Record
}

func serialValue(i int) []byte { return []byte(fmt.Sprintf("v%06d", i)) }

var generators = []generator{
	{"random", func(r *rand.Rand, n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			k := make([]byte, r.Intn(24))
			r.Read(k)
			recs[i] = Record{Part: r.Intn(4), Key: k, Value: serialValue(i)}
		}
		return recs
	}},
	{"zipf-duplicates", func(r *rand.Rand, n int) []Record {
		zipf := rand.NewZipf(r, 1.3, 1, 64)
		recs := make([]Record, n)
		for i := range recs {
			k := []byte(fmt.Sprintf("word%02d", zipf.Uint64()))
			recs[i] = Record{Part: int(zipf.Uint64()) % 3, Key: k, Value: serialValue(i)}
		}
		return recs
	}},
	// Every key shares its first 13 bytes (then 8, 12 and 200), so every
	// prefix comparison ties and order is decided in the arena tails (the
	// radix must skip the common prefix, not walk it); some keys are
	// exact prefixes of others.
	sharedPrefixKeys("long-shared-prefixes", 13),
	sharedPrefixKeys("shared-prefix-8", 8), sharedPrefixKeys("shared-prefix-12", 12), sharedPrefixKeys("shared-prefix-200", 200),
	{"short-and-empty-keys", func(r *rand.Rand, n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			k := make([]byte, r.Intn(9)) // 0..8 bytes: everything fits the prefix
			r.Read(k)
			recs[i] = Record{Part: r.Intn(3), Key: k, Value: serialValue(i)}
		}
		return recs
	}},
	{"one-key", func(r *rand.Rand, n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Part: 1, Key: []byte("the"), Value: serialValue(i)}
		}
		return recs
	}},
	{"trailing-zeros", func(r *rand.Rand, n int) []Record {
		// Keys that differ only in how many 0x00 bytes follow "ab": up to
		// eight bytes they have the same zero-padded Prefix, so only the
		// "key ended" bucket (or the length) can order them.
		recs := make([]Record, n)
		for i := range recs {
			k := append([]byte("ab"), make([]byte, r.Intn(9))...)
			recs[i] = Record{Part: r.Intn(2), Key: k[:r.Intn(len(k)+1)], Value: serialValue(i)}
		}
		return recs
	}},
	{"one-partition", func(r *rand.Rand, n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			k := make([]byte, r.Intn(12))
			r.Read(k)
			recs[i] = Record{Key: k, Value: serialValue(i)}
		}
		return recs
	}},
	{"more-partitions-than-records", func(r *rand.Rand, n int) []Record {
		recs := make([]Record, n)
		for i := range recs {
			k := []byte(fmt.Sprintf("w%d", r.Intn(40)))
			recs[i] = Record{Part: r.Intn(2*n + 1), Key: k, Value: serialValue(i)}
		}
		return recs
	}},
}

func sharedPrefixKeys(name string, length int) generator {
	return generator{name, func(r *rand.Rand, n int) []Record {
		prefix := bytes.Repeat([]byte("shared/prefix"), length/13+1)[:length]
		recs := make([]Record, n)
		for i := range recs {
			k := append(append([]byte(nil), prefix...), make([]byte, r.Intn(6))...)
			r.Read(k[length:])
			recs[i] = Record{Part: r.Intn(2), Key: k, Value: serialValue(i)}
		}
		return recs
	}}
}

// partitionCount is the least partition count that holds every record.
func partitionCount(recs []Record) int {
	parts := 1
	for _, r := range recs {
		parts = max(parts, r.Part+1)
	}
	return parts
}

func pack(recs []Record) PackedRecords {
	var p PackedRecords
	for _, r := range recs {
		p.Append(r.Part, r.Key, r.Value)
	}
	return p
}

// file is pack's bucketed twin: the records filed under their partitions,
// as the spill buffer files them. ok is false for a batch with a Part no
// partitioner of a real job produces (TestSortPackedBadParts), which only
// the flat entry accepts.
func file(recs []Record) (r Region, ok bool) {
	for _, rec := range recs {
		if rec.Part < 0 || rec.Part >= 1<<16 {
			return Region{}, false
		}
		r.Append(rec.Part, rec.Key, rec.Value)
	}
	return r, true
}

// flatten returns the region's records partition by partition.
func flatten(r Region) PackedRecords {
	p := PackedRecords{Arena: r.Arena}
	for _, m := range r.Parts {
		p.Meta = append(p.Meta, m...)
	}
	return p
}

// requireReferenceOrder sorts recs through both entries of the kernel —
// a packed copy with SortPacked, and a copy filed by partition with
// SortRegion — and requires of each exactly the sequence SortRecords
// (sort.SliceStable) produces: same keys, same partitions, equal keys in
// emit order.
func requireReferenceOrder(t *testing.T, recs []Record) {
	t.Helper()
	ref := make([]Record, len(recs))
	copy(ref, recs)
	SortRecords(ref)
	p := pack(recs)
	SortPacked(p)
	sorted := map[string]PackedRecords{"SortPacked": p}
	if r, ok := file(recs); ok {
		var s Sorter
		s.SortRegion(r)
		sorted["SortRegion"] = flatten(r)
	}
	for entry, p := range sorted {
		if p.Len() != len(ref) {
			t.Fatalf("%s: packed has %d records, reference %d", entry, p.Len(), len(ref))
		}
		for i := range ref {
			if p.Part(i) != ref[i].Part || !bytes.Equal(p.Key(i), ref[i].Key) || !bytes.Equal(p.Value(i), ref[i].Value) {
				t.Fatalf("%s: mismatch at %d of %d: packed (%d,%.40q,%q) vs reference (%d,%.40q,%q)",
					entry, i, len(ref), p.Part(i), p.Key(i), p.Value(i), ref[i].Part, ref[i].Key, ref[i].Value)
			}
		}
	}
}

// TestSortPackedMatchesReference runs every generator through the
// oracle at random sizes and at the sizes around the insertion cutoff.
func TestSortPackedMatchesReference(t *testing.T) {
	for _, g := range generators {
		t.Run(g.name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				r := rand.New(rand.NewSource(int64(trial)))
				n := 1 + r.Intn(2000)
				if trial < 4 {
					n = radixCutoff - 1 + trial
				}
				requireReferenceOrder(t, g.gen(r, n))
			}
		})
	}
}

// TestSortPackedBadParts: SortPacked is total for direct callers. A
// batch carrying partitions no partitioner of its size produces —
// negative, or beyond the record count — must come out in SortRecords
// order like any other, not index outside a per-partition table.
func TestSortPackedBadParts(t *testing.T) {
	bad := []int{-1, math.MinInt32, 0, 1, 2, 1 << 20, math.MaxInt32}
	r := rand.New(rand.NewSource(17))
	recs := generators[0].gen(r, 500)
	for i := range recs {
		recs[i].Part = bad[r.Intn(len(bad))]
	}
	requireReferenceOrder(t, recs)
	for i := range recs { // a single bad record at the end, after the count pass has seen good ones
		recs[i].Part = i % 3
	}
	recs[len(recs)-1].Part = -1
	requireReferenceOrder(t, recs)
}

// TestSortPackedDepthGuard: 4096 keys of 16 KiB that agree up to their
// last byte. Alone, the partition's common-prefix skip takes them to the
// one byte that differs; next to one short outlier the common prefix is
// empty, and what bounds the work is the depth guard — after radixDepth
// single-bucket levels the bucket goes to the comparison sort — not a
// recursion 16 Ki levels deep.
func TestSortPackedDepthGuard(t *testing.T) {
	keyLen := 16 << 10
	if testing.Short() {
		keyLen = 1 << 10
	}
	for _, outlier := range []bool{false, true} {
		t.Run(fmt.Sprintf("outlier=%v", outlier), func(t *testing.T) {
			r := rand.New(rand.NewSource(3))
			var p PackedRecords
			key := bytes.Repeat([]byte("x"), keyLen)
			for i := 0; i < 4096; i++ {
				key[keyLen-1] = byte(r.Intn(256))
				p.Append(0, key, serialValue(i))
			}
			if outlier {
				p.Append(0, []byte("a"), serialValue(4096))
			}
			recs := make([]Record, p.Len())
			for i := range recs {
				recs[i] = p.Record(i) // aliases the arena: one copy of the keys, not two
			}
			requireReferenceOrder(t, recs)
		})
	}
}

// FuzzSortPacked decodes a batch from the fuzz bytes — a partition
// count, then (key length, key bytes, partition) per record, values a
// serial number so stability is observable — and requires the exact
// SortRecords order. The seeds are the generators above at sizes on
// both sides of the insertion cutoff; tier-1 runs them.
func FuzzSortPacked(f *testing.F) {
	for seed, g := range generators {
		for _, n := range []int{3, radixCutoff, radixCutoff + 1, 300} {
			f.Add(encodeBatch(g.gen(rand.New(rand.NewSource(int64(seed))), n)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireReferenceOrder(t, decodeBatch(data))
	})
}

// encodeBatch is decodeBatch's inverse for batches of at most 256
// partitions and keys of at most 255 bytes.
func encodeBatch(recs []Record) []byte {
	parts := min(partitionCount(recs), 256)
	data := []byte{byte(parts - 1)}
	for _, r := range recs {
		data = append(data, byte(len(r.Key)))
		data = append(data, r.Key...)
		data = append(data, byte(r.Part%parts))
	}
	return data
}

func decodeBatch(data []byte) []Record {
	if len(data) == 0 {
		return nil
	}
	parts := int(data[0]) + 1
	data = data[1:]
	var recs []Record
	for len(data) > 0 {
		n := min(int(data[0]), len(data)-1)
		key := data[1 : 1+n]
		data = data[1+n:]
		part := 0
		if len(data) > 0 {
			part = int(data[0]) % parts
			data = data[1:]
		}
		recs = append(recs, Record{Part: part, Key: key, Value: serialValue(len(recs))})
	}
	return recs
}

func readFile(t testing.TB, disk vdisk.Disk, name string) []byte {
	t.Helper()
	f, err := disk.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPackedRunFilesByteIdentical: the flat packed pipeline (Append +
// SortPacked + run sink) and the spill path's (Region.Append + SortRegion
// + run sink, partition by partition) must each write the same bytes to
// disk as the reference pipeline (SortRecords + run sink), in both the
// plain and the prefix-compressed run format.
func TestPackedRunFilesByteIdentical(t *testing.T) {
	for _, g := range generators {
		for _, compressed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compressed=%v", g.name, compressed), func(t *testing.T) {
				for trial := 0; trial < 8; trial++ {
					r := rand.New(rand.NewSource(int64(100 + trial)))
					recs := g.gen(r, 1+r.Intn(1500))
					parts := partitionCount(recs)

					ref := make([]Record, len(recs))
					copy(ref, recs)
					SortRecords(ref)
					refDisk := vdisk.NewMem()
					rw, err := NewRunSink(refDisk, "run", parts, compressed)
					if err != nil {
						t.Fatal(err)
					}
					for _, rec := range ref {
						if err := rw.Append(rec.Part, rec.Key, rec.Value); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := rw.Close(); err != nil {
						t.Fatal(err)
					}

					want := readFile(t, refDisk, "run")

					flat := pack(recs)
					SortPacked(flat)
					region, _ := file(recs)
					var s Sorter
					s.SortRegion(region)
					pipelines := map[string][]PackedRecords{"flat": {flat}, "region": nil}
					for p := range region.Parts {
						pipelines["region"] = append(pipelines["region"], region.Part(p))
					}
					for name, batches := range pipelines {
						disk := vdisk.NewMem()
						pw, err := NewRunSink(disk, "run", parts, compressed)
						if err != nil {
							t.Fatal(err)
						}
						for _, p := range batches {
							for i := 0; i < p.Len(); i++ {
								if err := pw.Append(p.Part(i), p.Key(i), p.Value(i)); err != nil {
									t.Fatal(err)
								}
							}
						}
						if _, err := pw.Close(); err != nil {
							t.Fatal(err)
						}
						if got := readFile(t, disk, "run"); !bytes.Equal(want, got) {
							t.Fatalf("trial %d: %s pipeline's run file differs from the reference's (%d vs %d bytes)", trial, name, len(got), len(want))
						}
					}
				}
			})
		}
	}
}

// drive pulls the complete grouped sequence out of a merger.
type groupSeq struct {
	key  []byte
	vals [][]byte
}

type groupedMerger interface {
	NextGroup() ([]byte, bool, error)
	NextValue() ([]byte, bool, error)
	Close() error
}

func drive(t *testing.T, m groupedMerger) []groupSeq {
	t.Helper()
	defer m.Close()
	var out []groupSeq
	for {
		key, ok, err := m.NextGroup()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		g := groupSeq{key: append([]byte(nil), key...)}
		for {
			v, ok, err := m.NextValue()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			g.vals = append(g.vals, append([]byte(nil), v...))
		}
		out = append(out, g)
	}
}

// mergeRuns writes the workload into nRuns sorted run files and returns
// an opener for each partition's streams.
func mergeRuns(t *testing.T, recs []Record, parts, nRuns int, compressed bool) (vdisk.Disk, []RunIndex) {
	t.Helper()
	sorted := make([]Record, len(recs))
	copy(sorted, recs)
	for i := range sorted {
		sorted[i].Part %= parts // generators draw from more partitions than some tests use
	}
	SortRecords(sorted)
	disk := vdisk.NewMem()
	idxs := make([]RunIndex, nRuns)
	for run := 0; run < nRuns; run++ {
		w, err := NewRunSink(disk, fmt.Sprintf("run%d", run), parts, compressed)
		if err != nil {
			t.Fatal(err)
		}
		for i := run; i < len(sorted); i += nRuns {
			if err := w.Append(sorted[i].Part, sorted[i].Key, sorted[i].Value); err != nil {
				t.Fatal(err)
			}
		}
		idxs[run], err = w.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return disk, idxs
}

func openAll(t *testing.T, disk vdisk.Disk, idxs []RunIndex, part int) []Stream {
	t.Helper()
	streams := make([]Stream, len(idxs))
	for i, idx := range idxs {
		s, err := OpenRunPart(disk, idx, part)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = s
	}
	return streams
}

// TestLoserTreeMatchesReferenceMerger: the loser tree must yield the
// same group sequence and, within each group, the same value order
// (cross-run stability) as the heap reference, over every generator,
// both run formats, and k = 1..8 (including runs left empty for a
// partition).
func TestLoserTreeMatchesReferenceMerger(t *testing.T) {
	const parts = 3
	for _, g := range generators {
		for _, compressed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compressed=%v", g.name, compressed), func(t *testing.T) {
				for trial := 0; trial < 6; trial++ {
					r := rand.New(rand.NewSource(int64(200 + trial)))
					nRuns := 1 + r.Intn(8)
					recs := g.gen(r, r.Intn(1200)) // may be 0: all runs empty
					disk, idxs := mergeRuns(t, recs, parts, nRuns, compressed)
					for p := 0; p < parts; p++ {
						want := drive(t, mustRef(t, openAll(t, disk, idxs, p)))
						got := drive(t, mustNew(t, openAll(t, disk, idxs, p)))
						compareGroups(t, want, got, fmt.Sprintf("%s trial %d part %d (k=%d)", g.name, trial, p, nRuns))
					}
				}
			})
		}
	}
}

func mustRef(t *testing.T, s []Stream) *ReferenceMerger {
	t.Helper()
	m, err := NewReferenceMerger(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustNew(t *testing.T, s []Stream) *Merger {
	t.Helper()
	m, err := NewMerger(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func compareGroups(t *testing.T, want, got []groupSeq, context string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d groups from reference, %d from loser tree", context, len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(want[i].key, got[i].key) {
			t.Fatalf("%s: group %d key %q (reference) vs %q (loser tree)", context, i, want[i].key, got[i].key)
		}
		if len(want[i].vals) != len(got[i].vals) {
			t.Fatalf("%s: group %q: %d values vs %d", context, want[i].key, len(want[i].vals), len(got[i].vals))
		}
		for j := range want[i].vals {
			if !bytes.Equal(want[i].vals[j], got[i].vals[j]) {
				t.Fatalf("%s: group %q value %d: %q vs %q — combiner value order diverged",
					context, want[i].key, j, want[i].vals[j], got[i].vals[j])
			}
		}
	}
}

// TestMergerEdgeCases: zero streams, a single stream, and streams with
// an empty-key group must behave identically in both mergers.
func TestMergerEdgeCases(t *testing.T) {
	t.Run("zero-streams", func(t *testing.T) {
		for _, m := range []groupedMerger{mustNew(t, nil), mustRef(t, nil)} {
			if groups := drive(t, m); len(groups) != 0 {
				t.Fatalf("expected no groups from empty merge, got %d", len(groups))
			}
		}
	})
	t.Run("single-stream", func(t *testing.T) {
		recs := []Record{
			{Part: 0, Key: []byte(""), Value: []byte("empty1")},
			{Part: 0, Key: []byte(""), Value: []byte("empty2")},
			{Part: 0, Key: []byte("a"), Value: []byte("x")},
		}
		disk, idxs := mergeRuns(t, recs, 1, 1, false)
		want := drive(t, mustRef(t, openAll(t, disk, idxs, 0)))
		got := drive(t, mustNew(t, openAll(t, disk, idxs, 0)))
		if len(got) != 2 || string(got[0].key) != "" || len(got[0].vals) != 2 {
			t.Fatalf("empty-key group mishandled: %+v", got)
		}
		compareGroups(t, want, got, "single-stream")
	})
	t.Run("empty-key-across-runs", func(t *testing.T) {
		recs := []Record{
			{Part: 0, Key: []byte(""), Value: []byte("r0")},
			{Part: 0, Key: []byte(""), Value: []byte("r1")},
			{Part: 0, Key: []byte(""), Value: []byte("r2")},
			{Part: 0, Key: []byte("z"), Value: []byte("tail")},
		}
		disk, idxs := mergeRuns(t, recs, 1, 3, false)
		want := drive(t, mustRef(t, openAll(t, disk, idxs, 0)))
		got := drive(t, mustNew(t, openAll(t, disk, idxs, 0)))
		compareGroups(t, want, got, "empty-key-across-runs")
	})
}

// TestMergeIntoCombinerOrder: MergeInto (loser tree under the hood)
// must present each group's values to the combiner in exactly the order
// the reference merger yields them — the order combiner correctness
// depends on.
func TestMergeIntoCombinerOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	recs := generators[1].gen(r, 800) // duplicate-heavy
	const parts = 2
	disk, idxs := mergeRuns(t, recs, parts, 4, false)
	for p := 0; p < parts; p++ {
		var refOrder [][]byte
		refGroups := drive(t, mustRef(t, openAll(t, disk, idxs, p)))
		for _, g := range refGroups {
			refOrder = append(refOrder, g.vals...)
		}
		var gotOrder [][]byte
		out, err := NewRunSink(vdisk.NewMem(), "out", parts, false)
		if err != nil {
			t.Fatal(err)
		}
		combine := func(key []byte, vals [][]byte, emit func(k, v []byte) error) error {
			for _, v := range vals {
				gotOrder = append(gotOrder, append([]byte(nil), v...))
			}
			return emit(key, []byte("c"))
		}
		if _, _, err := MergeInto(openAll(t, disk, idxs, p), p, out, combine); err != nil {
			t.Fatal(err)
		}
		if _, err := out.Close(); err != nil {
			t.Fatal(err)
		}
		if len(refOrder) != len(gotOrder) {
			t.Fatalf("part %d: combiner saw %d values, reference yields %d", p, len(gotOrder), len(refOrder))
		}
		for i := range refOrder {
			if !bytes.Equal(refOrder[i], gotOrder[i]) {
				t.Fatalf("part %d: combiner value %d is %q, reference order says %q", p, i, gotOrder[i], refOrder[i])
			}
		}
	}
}
