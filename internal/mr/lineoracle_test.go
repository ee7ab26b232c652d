package mr

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"mrtext/internal/dfs"
)

// lineScanner is the test oracle for blockScanner: an independent bufio
// per-line reader, so the property tests and FuzzBlockScanner can require
// identical (offset, line, consumed) streams from two implementations.
// It iterates the lines belonging to one split with the standard
// split-boundary rule: a line belongs to the split that contains its first
// byte. To decide whether the split's first byte starts a line, the scanner
// opens one byte early and discards through the first newline — if that
// preceding byte was itself a newline the discard consumes exactly one
// byte, otherwise it consumes the tail of a line owned by the previous
// split. Conversely the scanner finishes a line that starts inside the
// split even when it extends past the split end (DFS reads continue into
// the next block transparently).
type lineScanner struct {
	r        *bufio.Reader
	rc       io.ReadCloser
	pos      int64 // file offset of the next unread byte
	splitEnd int64
	consumed int64 // bytes consumed that count against this split
	done     bool
	line     []byte // owned line buffer, reused across Next calls
}

// openLines positions a scanner at the start of the first line owned by the
// split, reading as the given node.
func openLines(fs *dfs.DFS, split Split, node int) (*lineScanner, error) {
	start := split.Offset
	seekBack := int64(0)
	if start > 0 {
		seekBack = 1
	}
	rc, err := fs.OpenFrom(split.File, node, start-seekBack)
	if err != nil {
		return nil, fmt.Errorf("mr: opening split %s@%d: %w", split.File, split.Offset, err)
	}
	s := &lineScanner{
		r:        bufio.NewReaderSize(rc, 64<<10),
		rc:       rc,
		pos:      start - seekBack,
		splitEnd: split.Offset + split.Len,
	}
	if start > 0 {
		// Discard through the first newline at or after start-1.
		skipped, err := s.r.ReadBytes('\n')
		s.pos += int64(len(skipped))
		if err == io.EOF {
			s.done = true
		} else if err != nil {
			return nil, fmt.Errorf("mr: skipping partial line of split %s@%d: %w",
				split.File, split.Offset, errors.Join(err, rc.Close()))
		}
	}
	return s, nil
}

// Next returns the next owned line (without its trailing newline) and its
// starting offset. ok=false signals end of split. The returned slice is
// the scanner's reused buffer and is valid only until the next Next call.
func (s *lineScanner) Next() (off int64, line []byte, ok bool, err error) {
	if s.done || s.pos >= s.splitEnd {
		return 0, nil, false, nil
	}
	off = s.pos
	s.line = s.line[:0]
	var rerr error
	for {
		var frag []byte
		frag, rerr = s.r.ReadSlice('\n')
		s.line = append(s.line, frag...)
		if rerr != bufio.ErrBufferFull {
			break
		}
	}
	n := int64(len(s.line))
	s.pos += n
	s.consumed += n
	if rerr == io.EOF {
		s.done = true
		if len(s.line) == 0 {
			return 0, nil, false, nil
		}
	} else if rerr != nil {
		return 0, nil, false, fmt.Errorf("mr: reading line at %d: %w", off, rerr)
	}
	line = s.line
	if len(line) > 0 && line[len(line)-1] == '\n' {
		line = line[:len(line)-1]
	}
	return off, line, true, nil
}

// Consumed reports the bytes this split has consumed so far.
func (s *lineScanner) Consumed() int64 { return s.consumed }

// Close releases the underlying DFS stream.
func (s *lineScanner) Close() error { return s.rc.Close() }
