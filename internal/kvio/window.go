package kvio

// The one way kvio reads a run: a byte window decoded in place.
//
// A window holds the unread bytes of a run's byte stream. Over an
// io.Reader it slides: consumed bytes are dropped, the rest is moved to
// the front and the freed space is refilled. Over a []byte it *is* the
// bytes and never moves. A windowStream parses frames out of the window
// with binary.Uvarint on the slice and returns keys and values as
// sub-slices of it, valid until the next Next — the Stream contract — so
// a record is copied once, by whoever keeps it (the Merger's leaf), and
// no varint byte goes through an io.ByteReader.

import (
	"encoding/binary"
	"fmt"
	"io"

	"mrtext/internal/serde"
	"mrtext/internal/vdisk"
)

// windowSize is the read granularity of a sliding window. A window is
// larger only while a single record is.
const windowSize = 64 << 10

// emptyReads is how many consecutive (0, nil) reads a window tolerates
// before it reports io.ErrNoProgress.
const emptyReads = 100

// window is the unread bytes buf[r:w] of a byte stream.
type window struct {
	src  io.Reader // nil: buf is the whole input
	buf  []byte
	r, w int
	err  error // sticky: why no more bytes will arrive (io.EOF at the end)
}

// newWindow returns a sliding window over the size bytes of src.
func newWindow(src io.Reader, size int64) window {
	return window{src: src, buf: make([]byte, min(size, windowSize))}
}

// bytesWindow returns a window that is data.
func bytesWindow(data []byte) window {
	return window{buf: data, w: len(data), err: io.EOF}
}

// fill brings at least n unread bytes into the window, or returns why it
// cannot. It grows the buffer only when n exceeds it, and then only as
// the bytes arrive: a corrupt length cannot make it allocate what the
// source does not deliver.
func (w *window) fill(n int) error {
	if w.w-w.r >= n {
		return nil
	}
	if w.err != nil {
		return w.err
	}
	if w.r > 0 {
		w.w = copy(w.buf, w.buf[w.r:w.w])
		w.r = 0
	}
	for empty := 0; w.w < n; {
		if w.w == len(w.buf) {
			w.buf = append(w.buf, make([]byte, max(len(w.buf), 1))...)
		}
		m, err := w.src.Read(w.buf[w.w:])
		w.w += m
		switch {
		case err != nil:
			w.err = err
			if w.w < n {
				return err
			}
		case m > 0:
			empty = 0
		default:
			if empty++; empty >= emptyReads {
				w.err = io.ErrNoProgress
				return w.err
			}
		}
	}
	return nil
}

// discard drops the next n bytes of the stream.
func (w *window) discard(n int64) error {
	for n > 0 {
		if w.r == w.w {
			if err := w.fill(1); err != nil {
				return err
			}
		}
		m := int(min(n, int64(w.w-w.r)))
		w.r += m
		n -= int64(m)
	}
	return nil
}

// windowStream decodes one segment's records out of a window, in either
// on-disk format.
type windowStream struct {
	window
	remain     int64 // segment bytes not yet decoded
	compressed bool
	key        []byte    // prefix format: the current key, rebuilt in place
	closer     io.Closer // what Close closes; nil for bytes and for a cursor's partitions
	run        string    // for error messages
	part       int
}

// Next implements Stream. The plain format is decoded fully in place; the
// prefix-compressed format rebuilds its key in one reused buffer and takes
// the value in place. Both slices are valid until the following Next.
//
//mrlint:hotpath
func (s *windowStream) Next() (key, value []byte, err error) {
	w := &s.window
	// need is how many bytes the frame is known to take; each pass that
	// finds fewer in the window asks for them and parses again.
	for need := 0; ; {
		if need > 0 {
			//mrlint:ignore alloccheck amortized: taken once per window of records and at the end of the stream
			if err := s.more(need); err != nil {
				return nil, nil, err
			}
		}
		b := w.buf[w.r:w.w]
		if int64(len(b)) > s.remain {
			b = b[:s.remain]
		}
		need = len(b) + 1
		shared, klen, vlen, h := frameHeader(b, s.compressed)
		if h == 0 {
			continue
		}
		if h < 0 {
			//mrlint:ignore alloccheck cold path: corrupt frame ends the stream
			return nil, nil, s.fail(fmt.Errorf("%w: overlong length varint", serde.ErrCorrupt))
		}
		if klen > serde.MaxFrameLen || vlen > serde.MaxFrameLen {
			//mrlint:ignore alloccheck cold path: corrupt frame ends the stream
			return nil, nil, s.fail(serde.ErrTooLarge)
		}
		if shared > uint64(len(s.key)) {
			//mrlint:ignore alloccheck cold path: corrupt frame ends the stream
			return nil, nil, s.fail(fmt.Errorf("shared %d exceeds previous key %d", shared, len(s.key)))
		}
		if need = h + int(klen) + int(vlen); need > len(b) {
			continue
		}
		w.r += need
		s.remain -= int64(need)
		key, value = b[h:h+int(klen)], b[h+int(klen):need]
		if s.compressed {
			//mrlint:ignore alloccheck amortized: the key buffer grows to the segment's longest key, then is reused
			s.key = append(s.key[:shared], key...)
			key = s.key
		}
		return key, value, nil
	}
}

// frameHeader parses the length varints at the front of b: key and value
// length, after the shared-prefix length in the prefix-compressed format
// (klen is then the key suffix's). h is their total size: 0 when b ends
// inside them, negative when one is overlong.
func frameHeader(b []byte, compressed bool) (shared, klen, vlen uint64, h int) {
	if compressed {
		var n int
		if shared, n = binary.Uvarint(b); n <= 0 {
			return 0, 0, 0, n
		}
		h = n
	}
	klen, n := binary.Uvarint(b[h:])
	if n <= 0 {
		return 0, 0, 0, n
	}
	h += n
	vlen, n = binary.Uvarint(b[h:])
	if n <= 0 {
		return 0, 0, 0, n
	}
	return shared, klen, vlen, h + n
}

// more brings the window to need unread bytes of this segment. It returns
// io.EOF bare when the segment ends exactly here, at a frame boundary.
func (s *windowStream) more(need int) error {
	if s.remain == 0 {
		return io.EOF
	}
	if int64(need) > s.remain {
		return s.fail(io.ErrUnexpectedEOF) // the frame runs past its segment
	}
	err := s.fill(need)
	if err == nil {
		return nil
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // the source ends inside its segment
	}
	return s.fail(err)
}

// fail names the run (when there is one) in a decode error.
func (s *windowStream) fail(err error) error {
	if s.run == "" {
		return fmt.Errorf("kvio: segment frame: %w", err)
	}
	return fmt.Errorf("kvio: run %q part %d frame: %w", s.run, s.part, err)
}

// Close implements Stream.
func (s *windowStream) Close() error {
	if s.closer == nil {
		return nil
	}
	return s.closer.Close()
}

// emptyStream is a segment of zero bytes: it costs no buffer and no disk
// operation.
type emptyStream struct{}

func (emptyStream) Next() (key, value []byte, err error) { return nil, nil, io.EOF }
func (emptyStream) Close() error                         { return nil }

// OpenRunPart opens partition part of the run described by idx, in
// whichever on-disk format the run was written with. An empty partition
// does not touch the disk.
func OpenRunPart(disk vdisk.Disk, idx RunIndex, part int) (Stream, error) {
	if part < 0 || part >= len(idx.Segments) {
		return nil, fmt.Errorf("kvio: run %q has no partition %d", idx.Name, part)
	}
	seg := idx.Segments[part]
	if seg.Len == 0 {
		return emptyStream{}, nil
	}
	rc, err := disk.OpenSection(idx.Name, seg.Off, seg.Len)
	if err != nil {
		return nil, fmt.Errorf("kvio: opening run %q part %d: %w", idx.Name, part, err)
	}
	return &windowStream{window: newWindow(rc, seg.Len), remain: seg.Len, compressed: idx.Compressed, closer: rc, run: idx.Name, part: part}, nil
}

// NewBytesSegmentStream decodes an in-memory segment previously read with
// ReadSegment (or any byte-identical copy of one) where it lies, in the
// given on-disk format (compressed selects the prefix-compressed framing):
// no buffer is allocated and no byte is copied.
func NewBytesSegmentStream(data []byte, compressed bool) Stream {
	return &windowStream{window: bytesWindow(data), remain: int64(len(data)), compressed: compressed}
}

// RunCursor reads a whole run file front to back through one window and
// one disk open, serving its partitions in ascending order — the order
// they lie in the file and the order the map-side merge asks for them.
type RunCursor struct {
	idx  RunIndex
	rc   io.ReadCloser
	s    windowStream // the file's window, bounded to the partition being served
	part int          // its index; -1 before the first Part
	end  int64        // file offset where it ends
}

// OpenRun opens the run described by idx for one pass over its partitions.
func OpenRun(disk vdisk.Disk, idx RunIndex) (*RunCursor, error) {
	rc, err := disk.Open(idx.Name)
	if err != nil {
		return nil, fmt.Errorf("kvio: opening run %q: %w", idx.Name, err)
	}
	return &RunCursor{
		idx:  idx,
		rc:   rc,
		s:    windowStream{window: newWindow(rc, idx.TotalBytes()), compressed: idx.Compressed, run: idx.Name},
		part: -1,
	}, nil
}

// Part returns partition p's records. Partitions must be asked for in
// ascending order; one may be skipped, and whatever an earlier partition's
// stream left unread is skipped with it. The stream is valid until the
// next Part or Close, and its own Close does nothing: the cursor owns the
// file. An empty partition reads nothing.
func (c *RunCursor) Part(p int) (Stream, error) {
	if p < 0 || p >= len(c.idx.Segments) {
		return nil, fmt.Errorf("kvio: run %q has no partition %d", c.idx.Name, p)
	}
	if p <= c.part {
		return nil, fmt.Errorf("kvio: run %q: partition %d is behind the cursor (at %d)", c.idx.Name, p, c.part)
	}
	c.part = p
	seg := c.idx.Segments[p]
	if seg.Len == 0 {
		return emptyStream{}, nil // and the cursor stays where it is
	}
	if err := c.s.discard(seg.Off - (c.end - c.s.remain)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("kvio: run %q: seeking partition %d: %w", c.idx.Name, p, err)
	}
	c.end = seg.Off + seg.Len
	c.s.remain, c.s.part, c.s.key = seg.Len, p, c.s.key[:0]
	return &c.s, nil
}

// Close closes the run file.
func (c *RunCursor) Close() error { return c.rc.Close() }
