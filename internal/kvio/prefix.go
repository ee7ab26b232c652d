package kvio

// Prefix key compression for run files — the paper's §VII future-work item
// "using more efficient on-disk data representations to minimize I/O".
//
// Records inside a run segment are sorted by key, so adjacent keys share
// long prefixes (natural-language words especially). The compressed frame
// replaces the full key with:
//
//	uvarint(sharedPrefixLen) uvarint(suffixLen) uvarint(valueLen) suffix value
//
// Readers reconstruct keys incrementally. The format is chosen per run
// file and recorded in its RunIndex, so compressed and plain runs coexist
// inside one job (e.g. only final map outputs compressed).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"mrtext/internal/serde"
	"mrtext/internal/vdisk"
)

// sharedPrefix returns the length of the common prefix of a and b.
func sharedPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// appendPrefixedKV appends the compressed frame of (key, value) given the
// previous key in the segment.
func appendPrefixedKV(dst, prevKey, key, value []byte) []byte {
	shared := sharedPrefix(prevKey, key)
	dst = binary.AppendUvarint(dst, uint64(shared))
	dst = binary.AppendUvarint(dst, uint64(len(key)-shared))
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	dst = append(dst, key[shared:]...)
	dst = append(dst, value...)
	return dst
}

// prefixRunWriter writes a prefix-compressed, partitioned, sorted run.
// It mirrors RunWriter's contract: Append in non-decreasing (partition,
// key) order; prefixes reset at segment boundaries.
type prefixRunWriter struct {
	disk    vdisk.Disk
	name    string
	file    io.WriteCloser
	buf     *bufio.Writer
	parts   int
	cur     int
	off     int64
	index   RunIndex
	started bool
	prevKey []byte
	scratch []byte
	rawIn   int64 // uncompressed bytes accepted (for the savings counter)
}

// NewPrefixRunWriter creates a prefix-compressed run file.
func NewPrefixRunWriter(disk vdisk.Disk, name string, parts int) (*prefixRunWriter, error) {
	return newPrefixRunWriter(disk, name, parts, nil)
}

func newPrefixRunWriter(disk vdisk.Disk, name string, parts int, buf *bufio.Writer) (*prefixRunWriter, error) {
	f, buf, err := createRun(disk, name, parts, buf)
	if err != nil {
		return nil, err
	}
	return &prefixRunWriter{
		disk:  disk,
		name:  name,
		file:  f,
		buf:   buf,
		parts: parts,
		index: RunIndex{Name: name, Compressed: true, Segments: make([]Segment, parts)},
	}, nil
}

// Append implements the RunSink contract.
func (w *prefixRunWriter) Append(part int, key, value []byte) error {
	if part < w.cur || part >= w.parts {
		return fmt.Errorf("kvio: run %q: partition %d out of order (current %d, parts %d)", w.name, part, w.cur, w.parts)
	}
	if part > w.cur || !w.started {
		lo := w.cur
		if w.started {
			lo = w.cur + 1
		}
		for p := lo; p <= part; p++ {
			w.index.Segments[p].Off = w.off
		}
		w.cur = part
		w.started = true
		w.prevKey = w.prevKey[:0] // prefixes never cross segments
	}
	w.scratch = appendPrefixedKV(w.scratch[:0], w.prevKey, key, value)
	n, err := w.buf.Write(w.scratch)
	if err != nil {
		return fmt.Errorf("kvio: run %q: writing record: %w", w.name, err)
	}
	w.off += int64(n)
	w.index.Segments[part].Len += int64(n)
	w.index.Segments[part].Records++
	w.prevKey = append(w.prevKey[:0], key...)
	w.rawIn += int64(serde.KVLen(len(key), len(value)))
	return nil
}

// Close flushes and returns the index.
func (w *prefixRunWriter) Close() (RunIndex, error) {
	if !w.started {
		w.cur = -1
	}
	for p := w.cur + 1; p < w.parts; p++ {
		w.index.Segments[p].Off = w.off
	}
	if err := w.buf.Flush(); err != nil {
		return RunIndex{}, fmt.Errorf("kvio: run %q: flush: %w", w.name, err)
	}
	if err := w.file.Close(); err != nil {
		return RunIndex{}, fmt.Errorf("kvio: run %q: close: %w", w.name, err)
	}
	return w.index, nil
}

// BytesWritten reports compressed bytes written so far.
func (w *prefixRunWriter) BytesWritten() int64 { return w.off }

// RawBytesIn reports the bytes the same records would have occupied in the
// plain format — the compression-savings numerator.
func (w *prefixRunWriter) RawBytesIn() int64 { return w.rawIn }

// RunSink abstracts the two run-writer formats for the map task.
type RunSink interface {
	Append(part int, key, value []byte) error
	Close() (RunIndex, error)
	BytesWritten() int64
}

// NewRunSink creates a run writer in the requested format.
func NewRunSink(disk vdisk.Disk, name string, parts int, compressed bool) (RunSink, error) {
	return NewRunSinkBuffered(disk, name, parts, compressed, nil)
}

// NewRunBuffer returns a run write buffer for NewRunSinkBuffered.
func NewRunBuffer() *bufio.Writer { return bufio.NewWriterSize(nil, runBufferBytes) }

// NewRunSinkBuffered is NewRunSink writing through buf, which it points at
// the new file: a caller that writes runs one after another reuses one
// buffer for all of them. buf must serve no other open sink; nil makes a
// new one.
func NewRunSinkBuffered(disk vdisk.Disk, name string, parts int, compressed bool, buf *bufio.Writer) (RunSink, error) {
	if compressed {
		return newPrefixRunWriter(disk, name, parts, buf)
	}
	return newRunWriter(disk, name, parts, buf)
}
