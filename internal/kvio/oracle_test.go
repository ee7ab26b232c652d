package kvio

// The byte-at-a-time run readers, kept as test oracles for the window
// decoder (window.go): one bufio.Reader per segment, every varint byte
// through binary.ReadUvarint, key and value copied into reader-owned
// buffers. They were the runtime's readers until the window replaced
// them; the property tests and FuzzRunDecode hold the window to their
// record sequences and their EOF-or-error verdicts.
//
// Two things differ from the retired production code, both so that
// arbitrary bytes cannot hurt the test process: the prefix reader bounds
// its lengths by serde.MaxFrameLen as the plain reader always did (it used
// to panic in make on a length near 2^63), and bodies are read as they
// arrive instead of into a buffer of the declared size.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"mrtext/internal/serde"
	"mrtext/internal/vdisk"
)

// oracleReader streams one segment in either format.
type oracleReader struct {
	rc         io.ReadCloser
	r          *bufio.Reader
	compressed bool
	key, val   bytes.Buffer
}

func newOracleStream(rc io.ReadCloser, compressed bool) Stream {
	return &oracleReader{rc: rc, r: bufio.NewReaderSize(rc, 64<<10), compressed: compressed}
}

// openOracleRunPart is OpenRunPart as it was: one positioned open per
// (run, partition), empty or not.
func openOracleRunPart(disk vdisk.Disk, idx RunIndex, part int) (Stream, error) {
	seg := idx.Segments[part]
	rc, err := disk.OpenSection(idx.Name, seg.Off, seg.Len)
	if err != nil {
		return nil, err
	}
	return newOracleStream(rc, idx.Compressed), nil
}

func (r *oracleReader) Next() (key, value []byte, err error) {
	var shared uint64
	first := true
	if r.compressed {
		if shared, err = binary.ReadUvarint(r.r); err != nil {
			if err == io.EOF {
				return nil, nil, io.EOF
			}
			return nil, nil, fmt.Errorf("oracle: shared length: %w", err)
		}
		first = false
	}
	klen, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err == io.EOF && first {
			return nil, nil, io.EOF
		}
		return nil, nil, fmt.Errorf("oracle: key length: %w", eofToUnexpected(err))
	}
	vlen, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: value length: %w", eofToUnexpected(err))
	}
	if klen > serde.MaxFrameLen || vlen > serde.MaxFrameLen {
		return nil, nil, serde.ErrTooLarge
	}
	if shared > uint64(r.key.Len()) {
		return nil, nil, fmt.Errorf("oracle: shared %d exceeds previous key %d", shared, r.key.Len())
	}
	r.key.Truncate(int(shared))
	if _, err := io.CopyN(&r.key, r.r, int64(klen)); err != nil {
		return nil, nil, fmt.Errorf("oracle: key: %w", eofToUnexpected(err))
	}
	r.val.Reset()
	if _, err := io.CopyN(&r.val, r.r, int64(vlen)); err != nil {
		return nil, nil, fmt.Errorf("oracle: value: %w", eofToUnexpected(err))
	}
	return r.key.Bytes(), r.val.Bytes(), nil
}

func (r *oracleReader) Close() error { return r.rc.Close() }

func eofToUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
