// Package serde implements the serialization substrate of the runtime: the
// framed key/value record format used in spill runs, map-output segments and
// shuffle transfers, plus the typed value codecs the benchmark applications
// use (counts, counter vectors, posting lists, rank records).
//
// The paper counts serialization and deserialization as part of the
// MapReduce abstraction cost (they happen inside the emit, sort-merge and
// shuffle operations), so this package is deliberately an explicit,
// byte-level codec layer rather than reflection-based encoding: every pass
// over intermediate data really pays an encode or decode, just as Hadoop's
// Writable layer does.
package serde

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// Frame errors.
var (
	// ErrCorrupt reports a malformed framed record.
	ErrCorrupt = errors.New("serde: corrupt record frame")
	// ErrTooLarge reports a frame whose declared length is implausible.
	ErrTooLarge = errors.New("serde: record frame too large")
)

// MaxFrameLen bounds a single key or value length; it protects readers
// against corrupt length prefixes.
const MaxFrameLen = 1 << 30

// AppendKV appends the framed encoding of (key, value) to dst and returns
// the extended slice. The frame is: uvarint(len(key)) uvarint(len(value))
// key value.
func AppendKV(dst, key, value []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	return dst
}

// KVLen returns the encoded size of a frame holding a key of klen bytes and
// a value of vlen bytes.
func KVLen(klen, vlen int) int {
	return UvarintLen(uint64(klen)) + UvarintLen(uint64(vlen)) + klen + vlen
}

// UvarintLen returns the number of bytes binary.AppendUvarint uses for v.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodeKV decodes one framed record from the front of buf. It returns the
// key and value as sub-slices of buf (no copy) and the total frame size.
func DecodeKV(buf []byte) (key, value []byte, n int, err error) {
	klen, k := binary.Uvarint(buf)
	if k <= 0 || klen > MaxFrameLen {
		return nil, nil, 0, ErrCorrupt
	}
	vlen, v := binary.Uvarint(buf[k:])
	if v <= 0 || vlen > MaxFrameLen {
		return nil, nil, 0, ErrCorrupt
	}
	head := k + v
	need := head + int(klen) + int(vlen)
	if len(buf) < need {
		return nil, nil, 0, ErrCorrupt
	}
	key = buf[head : head+int(klen)]
	value = buf[head+int(klen) : need]
	return key, value, need, nil
}

// Writer writes framed records to an io.Writer, tracking bytes written.
type Writer struct {
	w       io.Writer
	scratch []byte
	written int64
}

// NewWriter returns a Writer emitting frames to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, scratch: make([]byte, 0, 4096)}
}

// WriteKV writes one framed record.
func (w *Writer) WriteKV(key, value []byte) error {
	w.scratch = AppendKV(w.scratch[:0], key, value)
	n, err := w.w.Write(w.scratch)
	w.written += int64(n)
	return err
}

// Written reports the total bytes written so far.
func (w *Writer) Written() int64 { return w.written }

// ---------- Typed value codecs ----------

// EncodeInt64 encodes v as a zig-zag varint.
func EncodeInt64(v int64) []byte {
	return binary.AppendVarint(nil, v)
}

// AppendInt64 appends the zig-zag varint encoding of v to dst.
func AppendInt64(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// DecodeInt64 decodes a zig-zag varint value.
func DecodeInt64(b []byte) (int64, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, ErrCorrupt
	}
	return v, nil
}

// EncodeFloat64 encodes v as 8 little-endian bytes of its IEEE-754 bits.
func EncodeFloat64(v float64) []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
}

// DecodeFloat64 decodes an EncodeFloat64 value.
func DecodeFloat64(b []byte) (float64, error) {
	if len(b) < 8 {
		return 0, ErrCorrupt
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// EncodeCounterVec encodes a dense vector of small counters (the WordPOSTag
// intermediate value: one counter per part-of-speech tag).
func EncodeCounterVec(counts []uint32) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(counts)))
	for _, c := range counts {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// DecodeCounterVec decodes an EncodeCounterVec value, appending into dst
// (which may be nil) to allow reuse.
func DecodeCounterVec(dst []uint32, b []byte) ([]uint32, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > MaxFrameLen {
		return nil, ErrCorrupt
	}
	b = b[k:]
	if cap(dst) < int(n) {
		dst = make([]uint32, n)
	} else {
		dst = dst[:n]
	}
	for i := range dst {
		v, k := binary.Uvarint(b)
		if k <= 0 || v > math.MaxUint32 {
			return nil, ErrCorrupt
		}
		dst[i] = uint32(v)
		b = b[k:]
	}
	return dst, nil
}

// AddCounterVecs adds src into dst element-wise, growing dst as needed, and
// returns dst. It is the combine operation for counter vectors.
func AddCounterVecs(dst, src []uint32) []uint32 {
	if len(src) > len(dst) {
		grown := make([]uint32, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// Posting is one occurrence of a word in the corpus: the document (split)
// that contains it and the byte offset of the line it appeared on.
type Posting struct {
	Doc uint64
	Off uint64
}

// EncodePostings encodes a posting list. Postings are stored in order with
// delta-encoded documents, matching how a real inverted-index value grows
// sublinearly in combine().
func EncodePostings(ps []Posting) []byte {
	return AppendPostings(nil, ps)
}

// AppendPostings appends the encoding of ps to dst.
func AppendPostings(dst []byte, ps []Posting) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ps)))
	var prevDoc uint64
	for _, p := range ps {
		dst = binary.AppendUvarint(dst, p.Doc-prevDoc)
		dst = binary.AppendUvarint(dst, p.Off)
		prevDoc = p.Doc
	}
	return dst
}

// DecodePostings decodes an EncodePostings value, appending to dst.
func DecodePostings(dst []Posting, b []byte) ([]Posting, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > MaxFrameLen {
		return nil, ErrCorrupt
	}
	b = b[k:]
	var prevDoc uint64
	for i := uint64(0); i < n; i++ {
		dd, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, ErrCorrupt
		}
		b = b[k:]
		off, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, ErrCorrupt
		}
		b = b[k:]
		prevDoc += dd
		dst = append(dst, Posting{Doc: prevDoc, Off: off})
	}
	return dst, nil
}

// MergePostings merges two encoded posting lists into one encoded list,
// keeping document order. It is the combine operation for InvertedIndex.
func MergePostings(a, b []byte) ([]byte, error) {
	pa, err := DecodePostings(nil, a)
	if err != nil {
		return nil, err
	}
	pb, err := DecodePostings(nil, b)
	if err != nil {
		return nil, err
	}
	merged := make([]Posting, 0, len(pa)+len(pb))
	i, j := 0, 0
	for i < len(pa) && j < len(pb) {
		if pa[i].Doc < pb[j].Doc || (pa[i].Doc == pb[j].Doc && pa[i].Off <= pb[j].Off) {
			merged = append(merged, pa[i])
			i++
		} else {
			merged = append(merged, pb[j])
			j++
		}
	}
	merged = append(merged, pa[i:]...)
	merged = append(merged, pb[j:]...)
	return EncodePostings(merged), nil
}

// RankRecord is the PageRank intermediate/input value: a node's current rank
// plus its outgoing links. A pure contribution (from map() fan-out) has
// Outlinks nil and Graph false; the graph-reconstruction record has rank 0
// and Graph true.
type RankRecord struct {
	Rank     float64
	Graph    bool
	Outlinks []string
}

// EncodeRankRecord encodes r.
func EncodeRankRecord(r RankRecord) []byte {
	dst := binary.LittleEndian.AppendUint64(nil, math.Float64bits(r.Rank))
	if r.Graph {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Outlinks)))
	for _, l := range r.Outlinks {
		dst = binary.AppendUvarint(dst, uint64(len(l)))
		dst = append(dst, l...)
	}
	return dst
}

// AppendRankRecord appends the rank-record encoding to dst with the
// outlinks as byte slices — the allocation-free encoder for map-side hot
// paths, where the links are subslices of the input line rather than
// strings. The bytes produced are identical to EncodeRankRecord on the
// equivalent RankRecord.
//
//mrlint:hotpath
func AppendRankRecord(dst []byte, rank float64, graph bool, outlinks [][]byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rank))
	if graph {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(outlinks)))
	for _, l := range outlinks {
		dst = binary.AppendUvarint(dst, uint64(len(l)))
		dst = append(dst, l...)
	}
	return dst
}

// DecodeRankRecord decodes an EncodeRankRecord value.
func DecodeRankRecord(b []byte) (RankRecord, error) {
	var r RankRecord
	if len(b) < 9 {
		return r, ErrCorrupt
	}
	r.Rank = math.Float64frombits(binary.LittleEndian.Uint64(b))
	r.Graph = b[8] == 1
	b = b[9:]
	n, k := binary.Uvarint(b)
	if k <= 0 || n > MaxFrameLen {
		return r, ErrCorrupt
	}
	b = b[k:]
	if n > 0 {
		r.Outlinks = make([]string, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(b)
		if k <= 0 || uint64(len(b)-k) < l {
			return r, ErrCorrupt
		}
		r.Outlinks = append(r.Outlinks, string(b[k:k+int(l)]))
		b = b[k+int(l):]
	}
	return r, nil
}
