package serde

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAppendDecodeKVRoundTrip(t *testing.T) {
	cases := []struct{ k, v []byte }{
		{[]byte("key"), []byte("value")},
		{[]byte{}, []byte{}},
		{[]byte("k"), []byte{}},
		{[]byte{}, []byte("v")},
		{bytes.Repeat([]byte("x"), 1000), bytes.Repeat([]byte("y"), 5000)},
	}
	for _, c := range cases {
		buf := AppendKV(nil, c.k, c.v)
		if len(buf) != KVLen(len(c.k), len(c.v)) {
			t.Errorf("KVLen(%d,%d)=%d, encoded %d", len(c.k), len(c.v), KVLen(len(c.k), len(c.v)), len(buf))
		}
		k, v, n, err := DecodeKV(buf)
		if err != nil {
			t.Fatalf("DecodeKV: %v", err)
		}
		if n != len(buf) || !bytes.Equal(k, c.k) || !bytes.Equal(v, c.v) {
			t.Errorf("round trip mismatch for %q/%q", c.k, c.v)
		}
	}
}

func TestKVRoundTripQuick(t *testing.T) {
	f := func(k, v []byte) bool {
		buf := AppendKV(nil, k, v)
		gk, gv, n, err := DecodeKV(buf)
		return err == nil && n == len(buf) && bytes.Equal(gk, k) && bytes.Equal(gv, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeKVCorrupt(t *testing.T) {
	// Truncations of a valid frame must error, never panic.
	full := AppendKV(nil, []byte("somekey"), []byte("somevalue"))
	for i := 0; i < len(full); i++ {
		if _, _, _, err := DecodeKV(full[:i]); err == nil {
			t.Errorf("truncation at %d decoded successfully", i)
		}
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const n = 1000
	for i := 0; i < n; i++ {
		k := []byte{byte(i), byte(i >> 8)}
		v := bytes.Repeat([]byte{byte(i)}, i%7)
		if err := w.WriteKV(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if w.Written() != int64(buf.Len()) {
		t.Errorf("Written()=%d, buffer has %d", w.Written(), buf.Len())
	}
	r := NewReader(&buf)
	for i := 0; i < n; i++ {
		k, v, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if k[0] != byte(i) || len(v) != i%7 {
			t.Fatalf("record %d corrupted", i)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Errorf("expected io.EOF at end, got %v", err)
	}
}

func TestReaderTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteKV([]byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := 1; i < len(data); i++ {
		r := NewReader(bytes.NewReader(data[:i]))
		if _, _, err := r.Next(); err == nil {
			t.Errorf("truncated stream at %d succeeded", i)
		}
	}
}

func TestInt64RoundTrip(t *testing.T) {
	f := func(v int64) bool {
		got, err := DecodeInt64(EncodeInt64(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		got, err := DecodeInt64(EncodeInt64(v))
		if err != nil || got != v {
			t.Errorf("int64 %d: got %d err %v", v, got, err)
		}
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -3.25, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		got, err := DecodeFloat64(EncodeFloat64(v))
		if err != nil || got != v {
			t.Errorf("float64 %g: got %g err %v", v, got, err)
		}
	}
	if _, err := DecodeFloat64([]byte{1, 2, 3}); err == nil {
		t.Error("short float decoded")
	}
}

func TestCounterVecRoundTrip(t *testing.T) {
	f := func(counts []uint32) bool {
		got, err := DecodeCounterVec(nil, EncodeCounterVec(counts))
		if err != nil {
			return false
		}
		if len(counts) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, counts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCounterVecs(t *testing.T) {
	got := AddCounterVecs([]uint32{1, 2}, []uint32{10, 20, 30})
	want := []uint32{11, 22, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
	got = AddCounterVecs(nil, []uint32{5})
	if !reflect.DeepEqual(got, []uint32{5}) {
		t.Errorf("nil dst: got %v", got)
	}
}

func TestPostingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(50)
		ps := make([]Posting, n)
		var doc uint64
		for i := range ps {
			doc += uint64(rng.Intn(5)) // non-decreasing docs (delta encoding contract)
			ps[i] = Posting{Doc: doc, Off: uint64(rng.Intn(1 << 20))}
		}
		got, err := DecodePostings(nil, EncodePostings(ps))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ps) {
			t.Fatalf("len %d want %d", len(got), len(ps))
		}
		for i := range ps {
			if got[i] != ps[i] {
				t.Fatalf("posting %d: got %v want %v", i, got[i], ps[i])
			}
		}
	}
}

func TestMergePostings(t *testing.T) {
	a := EncodePostings([]Posting{{Doc: 1, Off: 5}, {Doc: 3, Off: 1}})
	b := EncodePostings([]Posting{{Doc: 2, Off: 9}, {Doc: 3, Off: 0}})
	merged, _, err := AppendMergedPostings(nil, [][]byte{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePostings(nil, merged)
	if err != nil {
		t.Fatal(err)
	}
	want := []Posting{{1, 5}, {2, 9}, {3, 0}, {3, 1}}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("posting %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestRankRecordRoundTrip(t *testing.T) {
	cases := []RankRecord{
		{},
		{Rank: 0.125},
		{Rank: 1e-9, Graph: true},
		{Graph: true, Outlinks: []string{"a", "bb", "ccc"}},
		{Rank: 42, Graph: true, Outlinks: []string{""}},
	}
	for _, want := range cases {
		got, err := DecodeRankRecord(EncodeRankRecord(want))
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if got.Rank != want.Rank || got.Graph != want.Graph || len(got.Outlinks) != len(want.Outlinks) {
			t.Fatalf("got %+v want %+v", got, want)
		}
		for i := range want.Outlinks {
			if got.Outlinks[i] != want.Outlinks[i] {
				t.Fatalf("outlink %d: got %q want %q", i, got.Outlinks[i], want.Outlinks[i])
			}
		}
	}
	if _, err := DecodeRankRecord([]byte{1, 2}); err == nil {
		t.Error("short rank record decoded")
	}
}

// TestAppendRankRecordMatchesEncode: the zero-alloc byte-slice encoder
// must be byte-identical to EncodeRankRecord on the equivalent record, so
// the map-side rewrite cannot change intermediate (and thus job) bytes.
func TestAppendRankRecordMatchesEncode(t *testing.T) {
	cases := []RankRecord{
		{},
		{Rank: 0.125},
		{Rank: 1e-9, Graph: true},
		{Graph: true, Outlinks: []string{"a", "bb", "ccc"}},
		{Rank: 42, Graph: true, Outlinks: []string{""}},
		{Rank: -3.5, Outlinks: []string{"page/x", "page/y"}},
	}
	for _, r := range cases {
		var links [][]byte
		for _, l := range r.Outlinks {
			links = append(links, []byte(l))
		}
		got := AppendRankRecord(nil, r.Rank, r.Graph, links)
		want := EncodeRankRecord(r)
		if !bytes.Equal(got, want) {
			t.Errorf("%+v: append %x, encode %x", r, got, want)
		}
	}
	// Appending to existing bytes preserves the prefix.
	pre := []byte("prefix")
	out := AppendRankRecord(pre, 1, false, nil)
	if !bytes.HasPrefix(out, pre) {
		t.Error("prefix clobbered")
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 14, 1<<14 - 1, 1 << 60, math.MaxUint64} {
		var buf [10]byte
		n := len(appendUvarint(buf[:0], v))
		if UvarintLen(v) != n {
			t.Errorf("UvarintLen(%d)=%d, want %d", v, UvarintLen(v), n)
		}
	}
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}
