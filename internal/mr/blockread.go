package mr

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"mrtext/internal/dfs"
)

// LineReader is the split reader's face: the line iterator plus the
// consumed-byte count the frequency-buffering profiler extrapolates from.
// Exported with SplitsOf and OpenSplitBatched so the benchmark's ingest
// drill can drain splits outside a job.
type LineReader interface {
	// Next returns the next line (without its trailing newline) and its
	// starting file offset; ok=false at end of split. The slice is owned
	// by the reader and valid only until the following Next call.
	Next() (off int64, line []byte, ok bool, err error)
	// Consumed reports bytes consumed so far that count against the split.
	Consumed() int64
	// Close releases the underlying DFS stream.
	Close() error
}

// SplitsOf returns the block splits of the given inputs: one per DFS
// block, a file's last block shorter than a tenth of the block size joining
// the split before it, each with the block's replicas as its hosts. A job
// runs these splits as they are when no input has more blocks than the
// cluster has map slots; otherwise it groups a file's consecutive blocks
// into fewer, larger splits (planSplits). Either way a line is read by the
// split its first byte falls in, so draining every split reads the input.
func SplitsOf(fs *dfs.DFS, inputs []string) ([]Split, error) {
	return planSplits(fs, inputs, 0, 0)
}

// OpenSplitBatched opens the split with the block-batched arena scanner
// every map task reads through. chunkBytes <= 0 selects the default arena
// chunk.
func OpenSplitBatched(fs *dfs.DFS, split Split, node int, chunkBytes int) (LineReader, error) {
	if chunkBytes <= 0 {
		chunkBytes = defaultIngestChunk
	}
	return openBlockLines(fs, split, node, chunkBytes, nil)
}

// defaultIngestChunk is the arena chunk size when Job.IngestChunkBytes is
// unset: large enough that per-chunk costs (the slide copy, the read call)
// amortize to noise, small enough to stay cache- and memory-friendly per
// concurrent map task.
const defaultIngestChunk = 1 << 20

// maxKeptArena bounds the arena a scanner keeps for the next task: one
// grown past it, by an outsized line or chunk, goes to the garbage
// collector when the scanner is closed.
const maxKeptArena = 4 * defaultIngestChunk

// tailChunk bounds reads once the buffered data reaches the split end:
// only the tail of one line can remain, so refills shrink from the arena
// chunk to this, keeping the metered DFS overshoot small.
const tailChunk = 4 << 10

// blockScanner is the batched split reader of the ingest fast path: it
// reads the split in arena-sized chunks and returns lines as subslices of
// the arena, so the steady-state per-line cost is one bytes.IndexByte —
// no per-line reader calls, no copies, no allocations. Boundary semantics
// are first-byte ownership: open one byte early and discard through the
// first newline; lines starting in-split complete past the split end —
// checked against the test-only lineScanner oracle by the byte-identity
// property tests and FuzzBlockScanner in blockread_test.go.
//
// Arena ownership: lines alias buf, which slides and is rewritten on
// refill, so a returned line is valid only until the next Next call.
// Callers that keep bytes copy them (the emit path copies into the spill
// buffer's arena). A map task's scanner is its workspace's, and keeps its
// arena from one task to the next: a task starts on an arena that holds
// the bytes the task before it read (nothing reads them: filled starts at
// zero), grown if a line of that task grew it.
type blockScanner struct {
	rc       io.ReadCloser
	buf      []byte // the arena: lines are subslices of this
	start    int    // index of the first unconsumed byte in buf
	filled   int    // bytes of buf currently valid
	pos      int64  // file offset of buf[start]
	splitEnd int64
	consumed int64 // bytes consumed that count against this split
	eof      bool  // underlying stream exhausted
	done     bool
}

// openBlockLines positions a batched scanner at the first line owned by
// the split, reading as the given node with the given arena chunk size.
// It reopens s, on the arena s last read into when that has room for the
// chunk; nil s makes a new scanner.
func openBlockLines(fs *dfs.DFS, split Split, node int, chunk int, s *blockScanner) (*blockScanner, error) {
	if chunk < 16 {
		chunk = 16
	}
	start := split.Offset
	seekBack := int64(0)
	if start > 0 {
		seekBack = 1
	}
	rc, err := fs.OpenFrom(split.File, node, start-seekBack)
	if err != nil {
		return nil, fmt.Errorf("mr: opening split %s@%d: %w", split.File, split.Offset, err)
	}
	if s == nil {
		s = new(blockScanner)
	}
	arena := s.buf
	if cap(arena) < chunk {
		arena = make([]byte, chunk)
	}
	*s = blockScanner{
		rc:       rc,
		buf:      arena[:chunk],
		pos:      start - seekBack,
		splitEnd: split.Offset + split.Len,
	}
	if start > 0 {
		// Discard through the first newline at or after start-1; these
		// bytes belong to the previous split and do not count as consumed.
		for {
			if i := bytes.IndexByte(s.buf[s.start:s.filled], '\n'); i >= 0 {
				s.pos += int64(i + 1)
				s.start += i + 1
				break
			}
			s.pos += int64(s.filled - s.start)
			s.start = s.filled
			if s.eof {
				s.done = true
				break
			}
			if err := s.fill(); err != nil {
				return nil, fmt.Errorf("mr: skipping partial line of split %s@%d: %w",
					split.File, split.Offset, errors.Join(err, rc.Close()))
			}
		}
	}
	return s, nil
}

// Next returns the next line as a subslice of the arena. See LineReader
// for the aliasing contract.
func (s *blockScanner) Next() (off int64, line []byte, ok bool, err error) {
	if s.done || s.pos >= s.splitEnd {
		return 0, nil, false, nil
	}
	scanned := 0 // bytes after start already known newline-free
	for {
		if i := bytes.IndexByte(s.buf[s.start+scanned:s.filled], '\n'); i >= 0 {
			end := s.start + scanned + i
			line = s.buf[s.start:end]
			n := int64(end + 1 - s.start)
			off = s.pos
			s.pos += n
			s.consumed += n
			s.start = end + 1
			return off, line, true, nil
		}
		scanned = s.filled - s.start
		if s.eof {
			// Final line without a trailing newline.
			if scanned == 0 {
				s.done = true
				return 0, nil, false, nil
			}
			line = s.buf[s.start:s.filled]
			off = s.pos
			s.pos += int64(scanned)
			s.consumed += int64(scanned)
			s.start = s.filled
			s.done = true
			return off, line, true, nil
		}
		if ferr := s.fill(); ferr != nil {
			return 0, nil, false, fmt.Errorf("mr: reading line at %d: %w", s.pos, ferr)
		}
		// fill slid the partial line to buf[0:scanned]; the scanned count
		// stays valid because it is relative to start.
	}
}

// fill slides the unconsumed tail of the arena to the front and reads more
// bytes after it, growing the arena when a single line exceeds it. Reads
// past the split end shrink to tailChunk to bound metered DFS overshoot.
func (s *blockScanner) fill() error {
	if s.start > 0 {
		s.filled = copy(s.buf, s.buf[s.start:s.filled])
		s.start = 0
	}
	if s.filled == len(s.buf) {
		// One line overflows the arena: double it, in place when the
		// arena a previous task grew has the room. Cold — amortized over
		// the split, and only pathological line lengths reach it at all.
		if 2*len(s.buf) <= cap(s.buf) {
			s.buf = s.buf[:2*len(s.buf)]
		} else {
			grown := make([]byte, 2*len(s.buf))
			copy(grown, s.buf[:s.filled])
			s.buf = grown
		}
	}
	want := len(s.buf) - s.filled
	if end := s.pos + int64(s.filled-s.start); end >= s.splitEnd && want > tailChunk {
		want = tailChunk
	}
	for {
		n, err := s.rc.Read(s.buf[s.filled : s.filled+want])
		s.filled += n
		if err == io.EOF {
			s.eof = true
			return nil
		}
		if err != nil {
			return err
		}
		if n > 0 {
			return nil
		}
	}
}

// Consumed reports the bytes this split has consumed so far (used to
// extrapolate the expected record count for the frequency-buffering
// profiler).
func (s *blockScanner) Consumed() int64 { return s.consumed }

// Close releases the underlying DFS stream, and the arena if it is too
// large to keep for the next task.
func (s *blockScanner) Close() error {
	if cap(s.buf) > maxKeptArena {
		s.buf = nil
	}
	return s.rc.Close()
}
