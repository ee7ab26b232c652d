package kvio

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mrtext/internal/serde"
)

// collectSink is a RunSink that keeps a copy of every record appended.
type collectSink struct{ recs []Record }

func (s *collectSink) Append(part int, key, value []byte) error {
	s.recs = append(s.recs, Record{Part: part, Key: bytes.Clone(key), Value: bytes.Clone(value)})
	return nil
}
func (s *collectSink) Close() (RunIndex, error) { return RunIndex{}, nil }
func (s *collectSink) BytesWritten() int64      { return 0 }

// wrappedSum is SumInt64 behind a func IsSumInt64 cannot recognise, so a
// merge calls it as an ordinary combiner.
func wrappedSum(key []byte, values [][]byte, emit func(k, v []byte) error) error {
	return SumInt64(key, values, emit)
}

func TestIsSumInt64(t *testing.T) {
	var copied CombineFunc = SumInt64
	if !IsSumInt64(SumInt64) || !IsSumInt64(copied) {
		t.Error("SumInt64's own value not recognised")
	}
	if IsSumInt64(nil) || IsSumInt64(wrappedSum) || IsSumInt64(func(k []byte, v [][]byte, e func(k, v []byte) error) error { return SumInt64(k, v, e) }) {
		t.Error("a combiner other than SumInt64 recognised as it")
	}
}

// TestMergeSumKernel: merging under SumInt64 emits one total per key, the
// wrapper's bytes, and builds no per-group state: sixty-four times the
// groups cost no more allocations.
func TestMergeSumKernel(t *testing.T) {
	runs := func(groups int) [][]Record {
		runs := make([][]Record, 3)
		for g := 0; g < groups; g++ {
			key := []byte(fmt.Sprintf("key%06d", g))
			for r := range runs {
				runs[r] = append(runs[r], Record{Key: key, Value: serde.EncodeInt64(int64(g*r - 7))})
			}
		}
		return runs
	}
	merge := func(runs [][]Record, combine CombineFunc, out RunSink) (int64, int64, error) {
		streams := make([]Stream, len(runs))
		for r := range runs {
			streams[r] = NewSliceStream(runs[r])
		}
		return MergeInto(streams, 0, out, combine)
	}
	rs := runs(100)
	var declared, generic collectSink
	de, dc, derr := merge(rs, SumInt64, &declared)
	ge, gc, gerr := merge(rs, wrappedSum, &generic)
	if derr != nil || gerr != nil || de != ge || dc != gc || de != 100 || dc != 300 {
		t.Fatalf("declared: %d emitted, %d consumed, %v; wrapper: %d, %d, %v", de, dc, derr, ge, gc, gerr)
	}
	for i := range generic.recs {
		if d, g := declared.recs[i], generic.recs[i]; !bytes.Equal(d.Key, g.Key) || !bytes.Equal(d.Value, g.Value) {
			t.Fatalf("record %d: declared %q=%x, wrapper %q=%x", i, d.Key, d.Value, g.Key, g.Value)
		}
	}
	measure := func(groups int) float64 {
		rs := runs(groups)
		sink := &countingSink{}
		return testing.AllocsPerRun(5, func() {
			if _, _, err := merge(rs, SumInt64, sink); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := measure(64), measure(64*64); many > few {
		t.Errorf("the sum kernel allocates per group: %.0f allocations for 64 groups, %.0f for 4096", few, many)
	}
}

// FuzzSumInt64 cuts arbitrary bytes into runs of (key, value) records —
// values of zero to seven arbitrary bytes, so some are one varint and some
// are not — and merges the runs twice: once under the declared SumInt64,
// whose kernel sums the values as the merge reads them, and once under a
// wrapper the merge calls as a combiner. Both merges must emit the same
// records and counts, or both must fail with ErrCorrupt naming a key.
func FuzzSumInt64(f *testing.F) {
	f.Add([]byte{2, 0x20, 1, 0x21, 2, 0x24, 3, 0x25, 0x7f})
	f.Add([]byte{3, 0x40, 0x80, 1, 0x41, 0xff, 0xff, 0x22, 4, 0x26, 5})
	f.Add([]byte{1, 0x60, 0x02, 'j', 'k', 0x20, 2})
	f.Add([]byte{4, 0x00, 0x20, 1, 0x25, 0x05, 0x2a, 0x09})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		streams := 1 + int(data[0])%4
		runs := make([][]Record, streams)
		for i := 1; i < len(data); {
			h := data[i]
			i++
			n := min(int(h>>5), len(data)-i)
			runs[int(h)%streams] = append(runs[int(h)%streams], Record{
				Key:   []byte{'k', '0' + (h>>2)%5},
				Value: data[i : i+n],
			})
			i += n
		}
		merge := func(combine CombineFunc) (*collectSink, int64, int64, error) {
			ss := make([]Stream, streams)
			for r := range runs {
				recs := append([]Record(nil), runs[r]...)
				SortRecords(recs)
				ss[r] = NewSliceStream(recs)
			}
			out := &collectSink{}
			emitted, consumed, err := MergeInto(ss, 0, out, combine)
			return out, emitted, consumed, err
		}
		declared, de, dc, derr := merge(SumInt64)
		generic, ge, gc, gerr := merge(wrappedSum)
		if (derr != nil) != (gerr != nil) {
			t.Fatalf("declared err %v, wrapper err %v", derr, gerr)
		}
		if derr != nil {
			for _, err := range []error{derr, gerr} {
				if !errors.Is(err, serde.ErrCorrupt) || !strings.Contains(err.Error(), `key "k`) {
					t.Fatalf("err %v: want ErrCorrupt naming the key", err)
				}
			}
			return
		}
		if de != ge || dc != gc || len(declared.recs) != len(generic.recs) {
			t.Fatalf("declared emitted %d of %d (%d records), wrapper %d of %d (%d)", de, dc, len(declared.recs), ge, gc, len(generic.recs))
		}
		for i := range generic.recs {
			if d, g := declared.recs[i], generic.recs[i]; !bytes.Equal(d.Key, g.Key) || !bytes.Equal(d.Value, g.Value) {
				t.Fatalf("record %d: declared %q=%x, wrapper %q=%x", i, d.Key, d.Value, g.Key, g.Value)
			}
		}
	})
}
