package serde

// The byte-at-a-time stream reader, kept as the test oracle for the frame
// format Writer produces. The runtime decodes frames in place out of a
// byte window (internal/kvio/window.go); nothing outside tests reads a
// frame through an io.ByteReader any more.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Reader reads framed records from an io.Reader. The slices it returns are
// valid until the next Next call.
type Reader struct {
	r    *countingByteReader
	key  []byte
	val  []byte
	read int64
}

// NewReader returns a Reader consuming frames from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: newCountingByteReader(r)}
}

// Next reads the next record. It returns io.EOF cleanly at end of stream and
// ErrCorrupt/ErrTooLarge on malformed input.
func (r *Reader) Next() (key, value []byte, err error) {
	klen, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err == io.EOF {
			return nil, nil, io.EOF
		}
		return nil, nil, fmt.Errorf("serde: reading key length: %w", err)
	}
	vlen, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, nil, fmt.Errorf("serde: reading value length: %w", unexpectEOF(err))
	}
	if klen > MaxFrameLen || vlen > MaxFrameLen {
		return nil, nil, ErrTooLarge
	}
	r.key = grow(r.key, int(klen))
	if _, err := io.ReadFull(r.r, r.key); err != nil {
		return nil, nil, fmt.Errorf("serde: reading key: %w", unexpectEOF(err))
	}
	r.val = grow(r.val, int(vlen))
	if _, err := io.ReadFull(r.r, r.val); err != nil {
		return nil, nil, fmt.Errorf("serde: reading value: %w", unexpectEOF(err))
	}
	return r.key, r.val, nil
}

// BytesRead reports total bytes consumed from the underlying reader.
func (r *Reader) BytesRead() int64 { return r.r.n }

func unexpectEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// countingByteReader adapts an io.Reader to io.ByteReader with buffering-free
// single-byte reads for the varint decoder while still supporting bulk reads.
type countingByteReader struct {
	r   io.Reader
	one [1]byte
	n   int64
}

func newCountingByteReader(r io.Reader) *countingByteReader {
	return &countingByteReader{r: r}
}

func (c *countingByteReader) ReadByte() (byte, error) {
	if br, ok := c.r.(io.ByteReader); ok {
		b, err := br.ReadByte()
		if err == nil {
			c.n++
		}
		return b, err
	}
	n, err := c.r.Read(c.one[:])
	c.n += int64(n)
	if n == 1 {
		return c.one[0], nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return 0, err
}

func (c *countingByteReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
