package kvio

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"mrtext/internal/serde"
	"mrtext/internal/vdisk"
)

func TestSortRecordsOrderAndStability(t *testing.T) {
	recs := []Record{
		{Part: 1, Key: []byte("b"), Value: []byte("1")},
		{Part: 0, Key: []byte("z"), Value: []byte("2")},
		{Part: 0, Key: []byte("a"), Value: []byte("3")},
		{Part: 0, Key: []byte("a"), Value: []byte("4")},
		{Part: 1, Key: []byte("a"), Value: []byte("5")},
	}
	SortRecords(recs)
	wantVals := []string{"3", "4", "2", "5", "1"}
	for i, w := range wantVals {
		if string(recs[i].Value) != w {
			t.Fatalf("pos %d: got %s want %s", i, recs[i].Value, w)
		}
	}
}

func TestSortRecordsQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, int(n))
		for i := range recs {
			recs[i] = Record{
				Part: rng.Intn(4),
				Key:  []byte{byte('a' + rng.Intn(4))},
			}
		}
		SortRecords(recs)
		for i := 1; i < len(recs); i++ {
			if recs[i-1].Part > recs[i].Part {
				return false
			}
			if recs[i-1].Part == recs[i].Part && bytes.Compare(recs[i-1].Key, recs[i].Key) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRunWriterEmptyAndSparse(t *testing.T) {
	disk := vdisk.NewMem()
	// Entirely empty run.
	rw, err := NewRunWriter(disk, "empty", 3)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := rw.Close()
	if err != nil {
		t.Fatal(err)
	}
	if idx.TotalRecords() != 0 || idx.TotalBytes() != 0 {
		t.Errorf("empty run totals: %d rec %d bytes", idx.TotalRecords(), idx.TotalBytes())
	}
	for p := 0; p < 3; p++ {
		s, err := OpenRunPart(disk, idx, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Next(); err != io.EOF {
			t.Errorf("part %d of empty run: %v", p, err)
		}
		s.Close()
	}
	// Only the last partition populated.
	rw2, err := NewRunWriter(disk, "sparse", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw2.Append(3, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	idx2, err := rw2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if idx2.Segments[3].Records != 1 {
		t.Errorf("segment 3: %+v", idx2.Segments[3])
	}
	for p := 0; p < 3; p++ {
		if idx2.Segments[p].Len != 0 {
			t.Errorf("segment %d should be empty: %+v", p, idx2.Segments[p])
		}
	}
}

func TestRunWriterRejectsOutOfOrder(t *testing.T) {
	disk := vdisk.NewMem()
	rw, err := NewRunWriter(disk, "run", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Append(1, []byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	if err := rw.Append(0, []byte("k"), nil); err == nil {
		t.Error("out-of-order partition accepted")
	}
	if err := rw.Append(2, []byte("k"), nil); err == nil {
		t.Error("out-of-range partition accepted")
	}
	if _, err := NewRunWriter(disk, "bad", 0); err == nil {
		t.Error("zero partitions accepted")
	}
}

// naiveMerge is the reference the heap merge is tested against.
func naiveMerge(runs [][]Record) []Record {
	var all []Record
	for _, r := range runs {
		all = append(all, r...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		return bytes.Compare(all[i].Key, all[j].Key) < 0
	})
	return all
}

func randomSortedRuns(rng *rand.Rand, nRuns, maxLen int) [][]Record {
	runs := make([][]Record, nRuns)
	for i := range runs {
		n := rng.Intn(maxLen)
		recs := make([]Record, n)
		for j := range recs {
			recs[j] = Record{
				Key:   []byte(fmt.Sprintf("k%02d", rng.Intn(20))),
				Value: []byte(strconv.Itoa(rng.Intn(1000))),
			}
		}
		SortRecords(recs)
		runs[i] = recs
	}
	return runs
}

func TestMergerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		runs := randomSortedRuns(rng, 1+rng.Intn(6), 30)
		streams := make([]Stream, len(runs))
		for i, r := range runs {
			streams[i] = NewSliceStream(r)
		}
		m, err := NewMerger(streams)
		if err != nil {
			t.Fatal(err)
		}
		var got []Record
		for {
			key, ok, err := m.NextGroup()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for {
				v, ok, err := m.NextValue()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				got = append(got, Record{Key: append([]byte(nil), key...), Value: append([]byte(nil), v...)})
			}
		}
		m.Close()
		want := naiveMerge(runs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d records want %d", trial, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].Key, want[i].Key) {
				t.Fatalf("trial %d pos %d: key %q want %q", trial, i, got[i].Key, want[i].Key)
			}
		}
	}
}

func TestMergerGroupSkipping(t *testing.T) {
	// NextGroup must drain unconsumed values of the previous group.
	runs := [][]Record{{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("a"), Value: []byte("2")},
		{Key: []byte("b"), Value: []byte("3")},
	}}
	m, err := NewMerger([]Stream{NewSliceStream(runs[0])})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	key, ok, _ := m.NextGroup()
	if !ok || string(key) != "a" {
		t.Fatalf("first group %q ok=%v", key, ok)
	}
	// Do not consume a's values; jump straight to the next group.
	key, ok, err = m.NextGroup()
	if err != nil || !ok || string(key) != "b" {
		t.Fatalf("second group %q ok=%v err=%v", key, ok, err)
	}
	v, ok, _ := m.NextValue()
	if !ok || string(v) != "3" {
		t.Fatalf("b value %q ok=%v", v, ok)
	}
	if _, ok, _ := m.NextGroup(); ok {
		t.Error("expected end of groups")
	}
}

func TestMergerStability(t *testing.T) {
	// Equal keys must arrive ordered by stream index (combiner semantics
	// depend on deterministic value order).
	s1 := NewSliceStream([]Record{{Key: []byte("k"), Value: []byte("first")}})
	s2 := NewSliceStream([]Record{{Key: []byte("k"), Value: []byte("second")}})
	m, err := NewMerger([]Stream{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, ok, _ := m.NextGroup(); !ok {
		t.Fatal("no group")
	}
	v1, _, _ := m.NextValue()
	want1 := append([]byte(nil), v1...)
	v2, _, _ := m.NextValue()
	if string(want1) != "first" || string(v2) != "second" {
		t.Errorf("order: %q then %q", want1, v2)
	}
}

func TestMergeIntoWithCombine(t *testing.T) {
	disk := vdisk.NewMem()
	sum := func(key []byte, values [][]byte, emit func(k, v []byte) error) error {
		var total int64
		for _, v := range values {
			n, err := serde.DecodeInt64(v)
			if err != nil {
				return err
			}
			total += n
		}
		return emit(key, serde.EncodeInt64(total))
	}
	mk := func(pairs ...[2]interface{}) []Record {
		var recs []Record
		for _, p := range pairs {
			recs = append(recs, Record{Key: []byte(p[0].(string)), Value: serde.EncodeInt64(int64(p[1].(int)))})
		}
		SortRecords(recs)
		return recs
	}
	streams := []Stream{
		NewSliceStream(mk([2]interface{}{"a", 1}, [2]interface{}{"b", 2})),
		NewSliceStream(mk([2]interface{}{"a", 10}, [2]interface{}{"c", 3})),
	}
	out, err := NewRunWriter(disk, "merged", 1)
	if err != nil {
		t.Fatal(err)
	}
	emitted, consumed, err := MergeInto(streams, 0, out, sum)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != 4 || emitted != 3 {
		t.Errorf("consumed=%d emitted=%d", consumed, emitted)
	}
	idx, err := out.Close()
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenRunPart(disk, idx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[string]int64{"a": 11, "b": 2, "c": 3}
	for i := 0; i < 3; i++ {
		k, v, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		n, _ := serde.DecodeInt64(v)
		if want[string(k)] != n {
			t.Errorf("key %q: got %d want %d", k, n, want[string(k)])
		}
	}
	if _, _, err := s.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

// countingSink is a RunSink that keeps nothing, so an allocation count
// taken around MergeInto is MergeInto's own.
type countingSink struct{ records int }

func (s *countingSink) Append(part int, key, value []byte) error { s.records++; return nil }
func (s *countingSink) Close() (RunIndex, error)                 { return RunIndex{}, nil }
func (s *countingSink) BytesWritten() int64                      { return 0 }

// TestMergeIntoAllocsPerGroup: MergeInto allocates per call (the merger,
// one closure, one value slice, one value arena), not per combined group:
// sixty-four times the groups must not cost more allocations.
func TestMergeIntoAllocsPerGroup(t *testing.T) {
	first := func(key []byte, values [][]byte, emit func(k, v []byte) error) error {
		return emit(key, values[0])
	}
	measure := func(groups int) float64 {
		runs := make([][]Record, 3)
		for g := 0; g < groups; g++ {
			key := []byte(fmt.Sprintf("key%06d", g))
			for r := range runs {
				runs[r] = append(runs[r], Record{Key: key, Value: []byte("value")})
			}
		}
		sink := &countingSink{}
		allocs := testing.AllocsPerRun(5, func() {
			streams := make([]Stream, len(runs))
			for r := range runs {
				streams[r] = NewSliceStream(runs[r])
			}
			emitted, consumed, err := MergeInto(streams, 0, sink, first)
			if err != nil || int(emitted) != groups || int(consumed) != 3*groups {
				t.Fatalf("merge of %d groups: emitted %d, consumed %d, err %v", groups, emitted, consumed, err)
			}
		})
		return allocs
	}
	few, many := measure(64), measure(64*64)
	if many > few {
		t.Errorf("MergeInto allocates per group: %.0f allocations for 64 groups, %.0f for 4096", few, many)
	}
}

func TestMergeIntoPassThrough(t *testing.T) {
	disk := vdisk.NewMem()
	recs := []Record{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("a"), Value: []byte("2")},
	}
	out, err := NewRunWriter(disk, "pt", 1)
	if err != nil {
		t.Fatal(err)
	}
	emitted, consumed, err := MergeInto([]Stream{NewSliceStream(recs)}, 0, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 2 || consumed != 2 {
		t.Errorf("emitted=%d consumed=%d", emitted, consumed)
	}
	if _, err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRunIndexTotals(t *testing.T) {
	disk := vdisk.NewMem()
	rw, err := NewRunWriter(disk, "totals", 2)
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes int64
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("key%d", i))
		v := []byte("val")
		part := 0
		if i >= 5 {
			part = 1
		}
		if err := rw.Append(part, k, v); err != nil {
			t.Fatal(err)
		}
		wantBytes += int64(serde.KVLen(len(k), len(v)))
	}
	idx, err := rw.Close()
	if err != nil {
		t.Fatal(err)
	}
	if idx.TotalRecords() != 10 || idx.TotalBytes() != wantBytes {
		t.Errorf("totals: %d records, %d bytes (want 10, %d)", idx.TotalRecords(), idx.TotalBytes(), wantBytes)
	}
	if got := rw.BytesWritten(); got != wantBytes {
		t.Errorf("BytesWritten=%d want %d", got, wantBytes)
	}
}
