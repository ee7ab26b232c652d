package kvio

// Tests for the window decoder and the run cursor: every way of reading a
// run must yield the oracle's records, the cursor must honour its ordering
// contract and count its opens, and arbitrary bytes must never separate
// the window from the oracle (FuzzRunDecode).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"mrtext/internal/chaos"
	"mrtext/internal/serde"
	"mrtext/internal/textgen"
	"mrtext/internal/vdisk"
)

// writeRegionRun writes recs the way a map task's spill does: filed by
// partition into a Region, each partition sorted by the radix kernel and
// appended to a run sink in partition order.
func writeRegionRun(t testing.TB, disk vdisk.Disk, name string, recs []Record, parts int, compressed bool) RunIndex {
	t.Helper()
	region, _ := file(recs)
	var s Sorter
	s.SortRegion(region)
	w, err := NewRunSink(disk, name, parts, compressed)
	if err != nil {
		t.Fatal(err)
	}
	for p := range region.Parts {
		batch := region.Part(p)
		for i := 0; i < batch.Len(); i++ {
			if err := w.Append(p, batch.Key(i), batch.Value(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	idx, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// readAll reads a stream to its end without closing it.
func readAll(t *testing.T, s Stream) [][2]string {
	t.Helper()
	var out [][2]string
	for {
		k, v, err := s.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]string{string(k), string(v)})
	}
}

func sameRecords(t testing.TB, what string, want, got [][2]string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d records, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: record %d is %q, oracle has %q", what, i, got[i], want[i])
		}
	}
}

// TestRunReadersAgree: a run written the way a spill is reads back
// identically through one ReadRun of every partition, through one
// OpenRunPart per partition, through ReadSegment, each staged copy decoded
// with NewBytesSegmentStream, and through the oracle — per generator, in
// both formats, and for the all-empty, one-record and
// all-in-last-partition shapes.
func TestRunReadersAgree(t *testing.T) {
	shapes := append([]generator{
		{"all-empty", func(r *rand.Rand, n int) []Record { return nil }},
		{"one-record", func(r *rand.Rand, n int) []Record {
			return []Record{{Part: 1, Key: []byte("k"), Value: []byte("v")}}
		}},
		{"all-in-last-partition", func(r *rand.Rand, n int) []Record {
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = Record{Part: 4, Key: []byte(fmt.Sprintf("w%03d", r.Intn(200))), Value: serialValue(i)}
			}
			return recs
		}},
	}, generators...)
	for _, g := range shapes {
		for _, compressed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compressed=%v", g.name, compressed), func(t *testing.T) {
				for trial := 0; trial < 4; trial++ {
					r := rand.New(rand.NewSource(int64(300 + trial)))
					recs := g.gen(r, 1+r.Intn(1500))
					parts := max(partitionCount(recs), 3)
					disk := vdisk.NewMem()
					idx := writeRegionRun(t, disk, "run", recs, parts, compressed)
					if int(idx.TotalRecords()) != len(recs) {
						t.Fatalf("run holds %d records, wrote %d", idx.TotalRecords(), len(recs))
					}
					all := make([]int, parts)
					for p := range all {
						all[p] = p
					}
					segs, err := ReadRun(disk, idx, all)
					if err != nil {
						t.Fatal(err)
					}
					for p := 0; p < parts; p++ {
						o, err := openOracleRunPart(disk, idx, p)
						if err != nil {
							t.Fatal(err)
						}
						want := drain(t, o)
						if int64(len(want)) != idx.Segments[p].Records {
							t.Fatalf("part %d: oracle read %d records, index says %d", p, len(want), idx.Segments[p].Records)
						}
						sameRecords(t, fmt.Sprintf("ReadRun part %d", p), want, drain(t, NewBytesSegmentStream(segs[p], compressed)))
						s, err := OpenRunPart(disk, idx, p)
						if err != nil {
							t.Fatal(err)
						}
						sameRecords(t, fmt.Sprintf("OpenRunPart %d", p), want, drain(t, s))
						raw, err := ReadSegment(disk, idx, p)
						if err != nil {
							t.Fatal(err)
						}
						sameRecords(t, fmt.Sprintf("staged part %d", p), want, drain(t, NewBytesSegmentStream(raw, compressed)))
					}
				}
			})
		}
	}
}

// sampleRun writes a three-partition run of n words per partition.
func sampleRun(t testing.TB, disk vdisk.Disk, name string, n int, compressed bool) RunIndex {
	t.Helper()
	var recs []Record
	for p := 0; p < 3; p++ {
		for i := 0; i < n; i++ {
			recs = append(recs, Record{Part: p, Key: []byte(fmt.Sprintf("p%d-word%05d", p, i)), Value: serialValue(i)})
		}
	}
	return writeRegionRun(t, disk, name, recs, 3, compressed)
}

// TestReadRunSemantics: ReadRun returns the listed partitions' bytes,
// reading past whole partitions nobody asked for, and refuses a list that
// is not ascending or names a partition the run does not have.
func TestReadRunSemantics(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		disk := vdisk.NewMem()
		idx := sampleRun(t, disk, "run", 4000, compressed) // each partition spans several windows
		want := make([][][2]string, 3)
		for p := range want {
			s, err := OpenRunPart(disk, idx, p)
			if err != nil {
				t.Fatal(err)
			}
			want[p] = drain(t, s)
		}
		for _, parts := range [][]int{{0, 2}, {2}, {1}, {0, 1, 2}} {
			segs, err := ReadRun(disk, idx, parts)
			if err != nil || len(segs) != len(parts) {
				t.Fatalf("ReadRun%v: %d segments, %v", parts, len(segs), err)
			}
			for i, p := range parts {
				sameRecords(t, fmt.Sprintf("ReadRun%v part %d", parts, p), want[p], drain(t, NewBytesSegmentStream(segs[i], compressed)))
			}
		}
		for _, parts := range [][]int{{1, 0}, {1, 1}, {-1}, {3}, {0, 3}} {
			if _, err := ReadRun(disk, idx, parts); err == nil {
				t.Errorf("compressed=%v: ReadRun%v succeeded", compressed, parts)
			}
		}
	}
}

// TestReadRunOneOpen: ReadRun opens its run once whatever the number of
// partitions, and an empty partition costs OpenRunPart, ReadSegment and a
// ReadRun of empty partitions no disk operation at all.
func TestReadRunOneOpen(t *testing.T) {
	disk := vdisk.NewMem()
	recs := []Record{{Part: 1, Key: []byte("a"), Value: []byte("1")}, {Part: 6, Key: []byte("b"), Value: []byte("2")}}
	idx := writeRegionRun(t, disk, "run", recs, 8, false)
	before := disk.Stats().Opens
	segs, err := ReadRun(disk, idx, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, seg := range segs {
		n += len(drain(t, NewBytesSegmentStream(seg, false)))
	}
	if got := disk.Stats().Opens - before; got != 1 || n != 2 {
		t.Errorf("ReadRun over 8 partitions: %d opens and %d records, want 1 and 2", got, n)
	}

	before = disk.Stats().Opens
	for _, p := range []int{0, 2, 7} {
		s, err := OpenRunPart(disk, idx, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, s); len(got) != 0 {
			t.Errorf("empty partition %d yields %v", p, got)
		}
		raw, err := ReadSegment(disk, idx, p)
		if err != nil || raw != nil {
			t.Errorf("ReadSegment of empty partition %d: %v, %v; want nil, nil", p, raw, err)
		}
	}
	if segs, err := ReadRun(disk, idx, []int{0, 2, 7}); err != nil || len(segs) != 3 || segs[0] != nil || segs[1] != nil || segs[2] != nil {
		t.Errorf("ReadRun of empty partitions: %v, %v; want three nil segments", segs, err)
	}
	if got := disk.Stats().Opens - before; got != 0 {
		t.Errorf("empty partitions cost %d disk opens, want 0", got)
	}
}

// TestEmptySegmentOnDeadNode: empty is empty — a killed source node fails
// the fetch of a segment with bytes in it and not of one without, and the
// empty fetch is no node operation for the injector to count.
func TestEmptySegmentOnDeadNode(t *testing.T) {
	live := vdisk.NewMem()
	idx := writeRegionRun(t, live, "run", []Record{{Part: 1, Key: []byte("a"), Value: []byte("1")}}, 3, true)
	in, err := chaos.New(chaos.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.Arm()
	defer in.Disarm()
	in.Kill(0)
	dead := chaos.WrapDisk(live, 0, in)
	for _, p := range []int{0, 2} {
		if raw, err := ReadSegment(dead, idx, p); err != nil || raw != nil {
			t.Errorf("ReadSegment(empty part %d) on a dead node: %v, %v", p, raw, err)
		}
		s, err := OpenRunPart(dead, idx, p)
		if err != nil {
			t.Fatalf("OpenRunPart(empty part %d) on a dead node: %v", p, err)
		}
		if got := drain(t, s); len(got) != 0 {
			t.Errorf("empty part %d yields %v", p, got)
		}
	}
	if _, err := ReadSegment(dead, idx, 1); !errors.Is(err, chaos.ErrNodeDead) {
		t.Errorf("ReadSegment(part 1) on a dead node: %v", err)
	}
	if _, err := OpenRunPart(dead, idx, 1); !errors.Is(err, chaos.ErrNodeDead) {
		t.Errorf("OpenRunPart(part 1) on a dead node: %v", err)
	}
	if segs, err := ReadRun(dead, idx, []int{0, 2}); err != nil || segs[0] != nil || segs[1] != nil {
		t.Errorf("ReadRun(empty parts) on a dead node: %v, %v", segs, err)
	}
	if _, err := ReadRun(dead, idx, []int{0, 1, 2}); !errors.Is(err, chaos.ErrNodeDead) {
		t.Errorf("ReadRun on a dead node: %v", err)
	}
}

// TestReadRunTruncatedFile: a run file shorter than its index says fails
// the read of a partition past the cut, naming the run, and still serves
// the intact ones.
func TestReadRunTruncatedFile(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		full := vdisk.NewMem()
		idx := sampleRun(t, full, "spill-7", 50, compressed)
		data := readFile(t, full, "spill-7")
		cut := vdisk.NewMem()
		w, err := cut.Create("spill-7")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data[:idx.Segments[1].Off+idx.Segments[1].Len/2]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := ReadRun(cut, idx, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, NewBytesSegmentStream(segs[0], compressed)); len(got) != 50 {
			t.Fatalf("intact part 0 yields %d records", len(got))
		}
		for _, parts := range [][]int{{0, 1}, {1}, {0, 2}} {
			if _, err := ReadRun(cut, idx, parts); err == nil || !strings.Contains(err.Error(), `"spill-7"`) {
				t.Errorf("compressed=%v, ReadRun%v of the cut run: %v; want an error naming the run", compressed, parts, err)
			}
		}
	}
}

// TestWindowRecordLargerThanWindow: a key of 100 KiB and a value of
// 200 KiB decode through 64 KiB windows, between ordinary records.
func TestWindowRecordLargerThanWindow(t *testing.T) {
	bigKey := bytes.Repeat([]byte("k"), 100<<10)
	bigVal := bytes.Repeat([]byte("v"), 200<<10)
	recs := []Record{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: bigKey, Value: bigVal},
		{Key: append(append([]byte(nil), bigKey...), 'z'), Value: []byte("2")},
		{Key: []byte("z"), Value: []byte("3")},
	}
	for _, compressed := range []bool{false, true} {
		disk := vdisk.NewMem()
		idx := writeRegionRun(t, disk, "run", recs, 1, compressed)
		o, err := openOracleRunPart(disk, idx, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := drain(t, o)
		if len(want) != len(recs) || want[1][0] != string(bigKey) || want[1][1] != string(bigVal) {
			t.Fatal("oracle did not read the large record back")
		}
		s, err := OpenRunPart(disk, idx, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "OpenRunPart", want, drain(t, s))
		raw, err := ReadSegment(disk, idx, 0)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "staged", want, drain(t, NewBytesSegmentStream(raw, compressed)))
	}
}

// stalledReader never delivers a byte and never says why.
type stalledReader struct{}

func (stalledReader) Read([]byte) (int, error) { return 0, nil }

// TestWindowNoProgress: a source that returns (0, nil) forever ends the
// stream in io.ErrNoProgress instead of spinning.
func TestWindowNoProgress(t *testing.T) {
	s := slidingStream(stalledReader{}, 10, 10, false)
	if _, _, err := s.Next(); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("Next over a stalled source: %v, want io.ErrNoProgress", err)
	}
	if _, _, err := s.Next(); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("second Next over a stalled source: %v, want io.ErrNoProgress", err)
	}
}

// slidingStream decodes the length bytes of r through a window that
// starts at size bytes.
func slidingStream(r io.Reader, length, size int, compressed bool) Stream {
	return &windowStream{window: newWindow(r, int64(size)), remain: int64(length), compressed: compressed}
}

// decodeOutcome is what a stream made of some bytes: the records before
// its end and whether that end was clean.
type decodeOutcome struct {
	recs  [][2]string
	clean bool // io.EOF; otherwise an error
}

func outcomeOf(s Stream) decodeOutcome {
	var o decodeOutcome
	for {
		k, v, err := s.Next()
		if err != nil {
			o.clean = err == io.EOF
			return o
		}
		o.recs = append(o.recs, [2]string{string(k), string(v)})
	}
}

// requireSameOutcome holds every window reading of data — sliding from
// window size ws over whole reads and over one-byte reads, and in place
// over the bytes themselves — to the oracle's records and verdict.
func requireSameOutcome(t *testing.T, data []byte, compressed bool, ws int) {
	t.Helper()
	want := outcomeOf(newOracleStream(io.NopCloser(bytes.NewReader(data)), compressed))
	readings := map[string]Stream{
		"sliding":          slidingStream(bytes.NewReader(data), len(data), ws, compressed),
		"sliding, 1B read": slidingStream(iotest.OneByteReader(bytes.NewReader(data)), len(data), ws, compressed),
		"in place":         NewBytesSegmentStream(data, compressed),
	}
	for name, s := range readings {
		got := outcomeOf(s)
		if got.clean != want.clean {
			t.Fatalf("%s (window %d, compressed=%v): clean end %v, oracle %v, after %d records", name, ws, compressed, got.clean, want.clean, len(got.recs))
		}
		sameRecords(t, fmt.Sprintf("%s (window %d, compressed=%v)", name, ws, compressed), want.recs, got.recs)
	}
}

// appRunBytes is the bytes of a real-shaped run file: the words of a
// textgen corpus as WordCount emits them (word → 1) or as InvertedIndex
// does (word → one posting), over three partitions.
func appRunBytes(t testing.TB, inverted, compressed bool) []byte {
	t.Helper()
	var text bytes.Buffer
	if _, err := textgen.Corpus(&text, textgen.DefaultCorpus(), 3<<10); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	sc := bufio.NewScanner(&text)
	for off := uint64(0); sc.Scan(); off += uint64(len(sc.Bytes())) + 1 {
		for _, w := range bytes.Fields(sc.Bytes()) {
			value := serde.EncodeInt64(1)
			if inverted {
				value = serde.EncodePostings([]serde.Posting{{Doc: 7, Off: off}})
			}
			recs = append(recs, Record{Part: int(KeyPrefix(w) % 3), Key: append([]byte(nil), w...), Value: value})
		}
	}
	disk := vdisk.NewMem()
	writeRegionRun(t, disk, "run", recs, 3, compressed)
	return readFile(t, disk, "run")
}

// TestWindowStraddlesEveryBoundary: WordCount- and InvertedIndex-shaped
// runs decode identically from every starting window size 1…300, so that
// each frame meets a refill boundary at each of its offsets.
func TestWindowStraddlesEveryBoundary(t *testing.T) {
	for _, inverted := range []bool{false, true} {
		for _, compressed := range []bool{false, true} {
			data := appRunBytes(t, inverted, compressed)
			if clean := outcomeOf(NewBytesSegmentStream(data, compressed)); !clean.clean || len(clean.recs) < 100 {
				t.Fatalf("seed run decodes to %d records, clean=%v", len(clean.recs), clean.clean)
			}
			for ws := 1; ws <= 300; ws++ {
				requireSameOutcome(t, data, compressed, ws)
			}
		}
	}
}

// FuzzRunDecode: arbitrary bytes × format × starting window size through
// the window decoder and the byte-at-a-time oracle. They must yield the
// same records, both end in io.EOF or both in an error, and never panic.
// The seeds are real-shaped WordCount and InvertedIndex runs in both
// formats, their truncations, and one frame per malformation the decoder
// rejects.
func FuzzRunDecode(f *testing.F) {
	for _, inverted := range []bool{false, true} {
		for _, compressed := range []bool{false, true} {
			data := appRunBytes(f, inverted, compressed)
			f.Add(data, compressed, uint16(0))
			f.Add(data, compressed, uint16(96))
			f.Add(data[:len(data)/2+1], compressed, uint16(7)) // cut mid-frame
			f.Add(data[:1], compressed, uint16(0))             // truncated header
		}
	}
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	overlong := bytes.Repeat([]byte{0x80}, 11)
	for _, compressed := range []bool{false, true} {
		f.Add([]byte{}, compressed, uint16(0))
		f.Add(overlong, compressed, uint16(3))
		f.Add(append(uv(0), overlong...), compressed, uint16(3))
		f.Add(uv(serde.MaxFrameLen+1, 0, 0), compressed, uint16(1))
		f.Add(uv(0, 1, serde.MaxFrameLen+1), compressed, uint16(1))
		f.Add(append(uv(1<<20, 1<<20, 0), "short"...), compressed, uint16(2)) // lengths the input does not hold
	}
	f.Add(append(uv(5, 1, 1), "kv"...), true, uint16(0)) // shared longer than the (empty) previous key
	f.Add(append(append(uv(0, 2, 1), "abv"...), append(uv(3, 0, 0), uv(1, 1, 1)...)...), true, uint16(4))

	f.Fuzz(func(t *testing.T, data []byte, compressed bool, ws uint16) {
		if len(data) > 1<<16 {
			return
		}
		requireSameOutcome(t, data, compressed, 1+int(ws)%1024)
	})
}

// TestGroundTruthWindowNext pins windowStream.Next's allocations to the
// compiler: once the prefix format's key buffer
// is warm, decoding allocates nothing, refills and slides included (the
// measured batches cross many 64 KiB windows). And a stream over staged
// bytes is one small allocation, the stream itself — no buffer — whose
// keys and values lie in the staged bytes.
func TestGroundTruthWindowNext(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		disk := vdisk.NewMem()
		idx := sampleRun(t, disk, "run", 40000, compressed)
		records := 0
		for p := 0; p < 3; p++ {
			s, err := OpenRunPart(disk, idx, p)
			if err != nil {
				t.Fatal(err)
			}
			step := func() {
				for i := 0; i < 1000; i++ {
					if _, _, err := s.Next(); err != nil {
						t.Fatal(err)
					}
					records++
				}
			}
			step() // warm: the first fill and the key buffer's growth
			if allocs := testing.AllocsPerRun(30, step); allocs != 0 && !raceEnabled {
				t.Errorf("compressed=%v part %d: %.2f allocations per 1000 records, want 0", compressed, p, allocs)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if records != 3*32000 {
			t.Fatalf("measured %d records", records)
		}

		raw, err := ReadSegment(disk, idx, 1)
		if err != nil {
			t.Fatal(err)
		}
		var s Stream
		allocs := testing.AllocsPerRun(50, func() { s = NewBytesSegmentStream(raw, compressed) })
		if allocs > 1 && !raceEnabled {
			t.Errorf("compressed=%v: NewBytesSegmentStream makes %.0f allocations, want the stream alone", compressed, allocs)
		}
		_, v, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		before := append([]byte(nil), raw...)
		v[0] ^= 0xff
		if bytes.Equal(before, raw) {
			t.Errorf("compressed=%v: a staged segment's value was copied out of the staged bytes", compressed)
		}
	}
}
