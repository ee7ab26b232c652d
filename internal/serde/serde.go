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
	"cmp"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
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

// postingsHeader splits an encoded posting list into its count and the
// postings' bytes. A count that the bytes cannot hold (every posting takes
// at least two) is rejected here, before anything is sized by it.
func postingsHeader(b []byte) (n uint64, rest []byte, ok bool) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > MaxFrameLen || n > uint64(len(b)-k)/2 {
		return 0, nil, false
	}
	return n, b[k:], true
}

// nextPosting decodes the doc delta and offset at the front of b and
// returns their encoded length, 0 if b does not start with a posting.
func nextPosting(b []byte) (docDelta, off uint64, n int) {
	docDelta, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, 0, 0
	}
	off, j := binary.Uvarint(b[k:])
	if j <= 0 {
		return 0, 0, 0
	}
	return docDelta, off, k + j
}

// DecodePostings decodes an EncodePostings value, appending to dst.
func DecodePostings(dst []Posting, b []byte) ([]Posting, error) {
	n, b, ok := postingsHeader(b)
	if !ok {
		return nil, ErrCorrupt
	}
	var prevDoc uint64
	for i := uint64(0); i < n; i++ {
		dd, off, k := nextPosting(b)
		if k == 0 {
			return nil, ErrCorrupt
		}
		b = b[k:]
		prevDoc += dd
		dst = append(dst, Posting{Doc: prevDoc, Off: off})
	}
	return dst, nil
}

// comparePostings orders postings by (Doc, Off).
func comparePostings(a, b Posting) int {
	if c := cmp.Compare(a.Doc, b.Doc); c != 0 {
		return c
	}
	return cmp.Compare(a.Off, b.Off)
}

// AppendMergedPostings appends to dst the encoding of every posting of the
// encoded lists, in (Doc, Off) order — the combine and reduce operation of
// InvertedIndex. When the lists, read one after another, are already in
// that order (every list built from one input file arrives so), it
// re-encodes them in one pass: the counts are summed into one header, each
// list's first doc delta is rebased on the previous list's last doc, and
// the rest of each list is copied as it stands. Otherwise it decodes every
// posting into scratch, sorts and encodes. It returns the extended dst and
// scratch, grown for the next call. A malformed list yields ErrCorrupt
// and dst as given.
//
//mrlint:hotpath
func AppendMergedPostings(dst []byte, lists [][]byte, scratch []Posting) ([]byte, []Posting, error) {
	var total uint64
	for _, l := range lists {
		n, _, ok := postingsHeader(l)
		if !ok {
			return dst, scratch, ErrCorrupt
		}
		total += n
	}
	base := len(dst)
	dst = binary.AppendUvarint(dst, total)
	// One pass per list: its first posting is rebased and written, the rest
	// only checked for order, then copied in one piece.
	var last Posting // the last posting written; {0, 0} orders before any
	for _, l := range lists {
		n, b, _ := postingsHeader(l) // checked above
		if n == 0 {
			continue
		}
		dd, off, k := nextPosting(b)
		if k == 0 {
			return dst[:base], scratch, ErrCorrupt
		}
		p := Posting{Doc: dd, Off: off}
		if comparePostings(p, last) < 0 {
			return mergeSorted(dst[:base], lists, scratch)
		}
		dst = binary.AppendUvarint(dst, p.Doc-last.Doc)
		dst = binary.AppendUvarint(dst, p.Off)
		rest := k
		for i := uint64(1); i < n; i++ {
			dd, off, k := nextPosting(b[rest:])
			if k == 0 {
				return dst[:base], scratch, ErrCorrupt
			}
			q := Posting{Doc: p.Doc + dd, Off: off}
			if comparePostings(q, p) < 0 {
				return mergeSorted(dst[:base], lists, scratch)
			}
			p = q
			rest += k
		}
		dst = append(dst, b[k:rest]...)
		last = p
	}
	return dst, scratch, nil
}

// mergeSorted is AppendMergedPostings for lists out of order: decode all,
// sort, encode.
func mergeSorted(dst []byte, lists [][]byte, scratch []Posting) ([]byte, []Posting, error) {
	all := scratch[:0]
	for _, l := range lists {
		ps, err := DecodePostings(all, l)
		if err != nil {
			return dst, all, err
		}
		all = ps
	}
	slices.SortFunc(all, comparePostings)
	return AppendPostings(dst, all), all, nil
}

// AppendPostingsText appends the text form of an encoded posting list to
// dst: "doc:off" pairs separated by single spaces, then a newline. It
// formats straight from the varints, decoding nothing into memory.
//
//mrlint:hotpath
func AppendPostingsText(dst, value []byte) ([]byte, error) {
	n, b, ok := postingsHeader(value)
	if !ok {
		return dst, ErrCorrupt
	}
	var doc uint64
	for i := uint64(0); i < n; i++ {
		dd, off, k := nextPosting(b)
		if k == 0 {
			return dst, ErrCorrupt
		}
		b = b[k:]
		doc += dd
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendUint(dst, doc, 10)
		dst = append(dst, ':')
		dst = strconv.AppendUint(dst, off, 10)
	}
	return append(dst, '\n'), nil
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

// AppendRankRecordOutlinks appends the outlinks of an encoded rank record
// to dst, separated by sep, without decoding the record into memory. It
// rejects what DecodeRankRecord rejects.
//
//mrlint:hotpath
func AppendRankRecordOutlinks(dst, b []byte, sep byte) ([]byte, error) {
	if len(b) < 9 {
		return dst, ErrCorrupt
	}
	b = b[9:]
	n, k := binary.Uvarint(b)
	if k <= 0 || n > MaxFrameLen {
		return dst, ErrCorrupt
	}
	b = b[k:]
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(b)
		if k <= 0 || uint64(len(b)-k) < l {
			return dst, ErrCorrupt
		}
		if i > 0 {
			dst = append(dst, sep)
		}
		dst = append(dst, b[k:k+int(l)]...)
		b = b[k+int(l):]
	}
	return dst, nil
}
