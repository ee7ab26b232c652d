// Package kvio implements the on-disk intermediate-data machinery of the
// runtime: sorted, partitioned run files (spill files and final map-output
// segments), sequential run readers, the packed in-memory record
// representation the spill path sorts (packed.go), and the loser-tree
// k-way merge — with optional inline combining — used both by the
// map-side merge and by the reduce-side shuffle merge (losertree.go).
//
// A run file holds, for each partition in ascending order, a contiguous
// segment of framed key/value records sorted by key. The byte offsets of
// the segments are kept in an in-memory RunIndex (the moral equivalent of
// Hadoop's spill index file), which lets the shuffle serve exactly one
// partition with a positioned read.
package kvio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"

	"mrtext/internal/serde"
	"mrtext/internal/vdisk"
)

// Record is one intermediate key/value pair tagged with its reduce
// partition. Key and Value reference caller-owned bytes.
type Record struct {
	Part  int
	Key   []byte
	Value []byte
}

// SortRecords sorts records by (partition, key), with a stable order for
// equal keys so combiner semantics match Hadoop's (values arrive in emit
// order). It is the reference implementation the packed index sort
// (SortPacked) is validated against; the spill hot path uses SortPacked.
func SortRecords(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].Part != recs[j].Part {
			return recs[i].Part < recs[j].Part
		}
		return bytes.Compare(recs[i].Key, recs[j].Key) < 0
	})
}

// Segment locates one partition's records inside a run file.
type Segment struct {
	Off     int64
	Len     int64
	Records int64
}

// RunIndex describes a completed run file: its name on disk, its on-disk
// format, and the segment per partition.
type RunIndex struct {
	Name       string
	Compressed bool // prefix-compressed frames (see prefix.go)
	Segments   []Segment
}

// TotalBytes returns the file's total record bytes.
func (ri RunIndex) TotalBytes() int64 {
	var n int64
	for _, s := range ri.Segments {
		n += s.Len
	}
	return n
}

// TotalRecords returns the file's total record count.
func (ri RunIndex) TotalRecords() int64 {
	var n int64
	for _, s := range ri.Segments {
		n += s.Records
	}
	return n
}

// RunWriter writes a partitioned, sorted run file. Append must be called in
// non-decreasing partition order; within a partition, in non-decreasing key
// order (not verified, but merge correctness depends on it).
type RunWriter struct {
	disk    vdisk.Disk
	name    string
	file    io.WriteCloser
	buf     *bufio.Writer
	w       *serde.Writer
	parts   int
	cur     int
	off     int64
	index   RunIndex
	started bool
}

// NewRunWriter creates a run file with the given number of partitions.
func NewRunWriter(disk vdisk.Disk, name string, parts int) (*RunWriter, error) {
	if parts <= 0 {
		return nil, fmt.Errorf("kvio: run %q: parts must be positive, got %d", name, parts)
	}
	f, err := disk.Create(name)
	if err != nil {
		return nil, fmt.Errorf("kvio: creating run %q: %w", name, err)
	}
	buf := bufio.NewWriterSize(f, 64<<10)
	return &RunWriter{
		disk:  disk,
		name:  name,
		file:  f,
		buf:   buf,
		w:     serde.NewWriter(buf),
		parts: parts,
		index: RunIndex{Name: name, Segments: make([]Segment, parts)},
	}, nil
}

// Append writes one record into partition part.
func (rw *RunWriter) Append(part int, key, value []byte) error {
	if part < rw.cur || part >= rw.parts {
		return fmt.Errorf("kvio: run %q: partition %d out of order (current %d, parts %d)", rw.name, part, rw.cur, rw.parts)
	}
	if part > rw.cur || !rw.started {
		// Empty segments skipped over start (and end) at the current
		// offset; the current partition, if begun, keeps its offset.
		lo := rw.cur
		if rw.started {
			lo = rw.cur + 1
		}
		for p := lo; p <= part; p++ {
			rw.index.Segments[p].Off = rw.off
		}
		rw.cur = part
		rw.started = true
	}
	before := rw.w.Written()
	if err := rw.w.WriteKV(key, value); err != nil {
		return fmt.Errorf("kvio: run %q: writing record: %w", rw.name, err)
	}
	written := rw.w.Written() - before
	rw.off += written
	rw.index.Segments[part].Len += written
	rw.index.Segments[part].Records++
	return nil
}

// Close flushes and closes the file, returning its index.
func (rw *RunWriter) Close() (RunIndex, error) {
	if !rw.started {
		rw.cur = -1
	}
	for p := rw.cur + 1; p < rw.parts; p++ {
		rw.index.Segments[p].Off = rw.off
	}
	if err := rw.buf.Flush(); err != nil {
		return RunIndex{}, fmt.Errorf("kvio: run %q: flush: %w", rw.name, err)
	}
	if err := rw.file.Close(); err != nil {
		return RunIndex{}, fmt.Errorf("kvio: run %q: close: %w", rw.name, err)
	}
	return rw.index, nil
}

// BytesWritten reports bytes written so far.
func (rw *RunWriter) BytesWritten() int64 { return rw.off }

// Stream is a sequential source of key/value records in sorted key order.
// Next returns io.EOF after the last record; the returned slices are valid
// only until the following Next call.
type Stream interface {
	Next() (key, value []byte, err error)
	Close() error
}

// SliceStream adapts an in-memory, already-sorted record slice to a Stream.
// Records must all belong to one partition.
type SliceStream struct {
	recs []Record
	pos  int
}

// NewSliceStream returns a Stream over recs.
func NewSliceStream(recs []Record) *SliceStream { return &SliceStream{recs: recs} }

// Next implements Stream.
func (s *SliceStream) Next() (key, value []byte, err error) {
	if s.pos >= len(s.recs) {
		return nil, nil, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r.Key, r.Value, nil
}

// Close implements Stream.
func (s *SliceStream) Close() error { return nil }

// CombineFunc aggregates all values of one key, emitting zero or more
// records. It matches the user combine() contract: it may be applied any
// number of times to any subset of a key's values. The key and value
// slices are the caller's and are reused once the call returns. emit
// copies the key and value it is given before it returns, so a combiner
// may emit from scratch it reuses on its next call; every caller's emit
// (the spill writer, MergeInto and the frequency buffer) keeps to this.
type CombineFunc func(key []byte, values [][]byte, emit func(key, value []byte) error) error

// MergeInto merges streams and appends every (possibly combined) record to
// out for the given partition. When combine is nil, records pass through
// unmodified (still in sorted order). It returns the number of records
// emitted and the number consumed.
func MergeInto(streams []Stream, part int, out RunSink, combine CombineFunc) (emitted, consumed int64, err error) {
	m, err := NewMerger(streams)
	if err != nil {
		return 0, 0, err
	}
	defer m.Close()

	// One closure, one value slice and one byte arena serve every group of
	// the merge. A group's values are copied into the arena as they are
	// read and sliced out of it only afterwards, because growing the arena
	// moves it.
	emit := func(k, v []byte) error {
		emitted++
		return out.Append(part, k, v)
	}
	var (
		vals  [][]byte
		arena []byte
		ends  []int
	)
	for {
		key, ok, err := m.NextGroup()
		if err != nil {
			return emitted, consumed, err
		}
		if !ok {
			return emitted, consumed, nil
		}
		if combine == nil {
			for {
				v, ok, err := m.NextValue()
				if err != nil {
					return emitted, consumed, err
				}
				if !ok {
					break
				}
				consumed++
				emitted++
				if err := out.Append(part, key, v); err != nil {
					return emitted, consumed, err
				}
			}
			continue
		}
		arena, ends = arena[:0], ends[:0]
		for {
			v, ok, err := m.NextValue()
			if err != nil {
				return emitted, consumed, err
			}
			if !ok {
				break
			}
			consumed++
			arena = append(arena, v...)
			ends = append(ends, len(arena))
		}
		vals = vals[:0]
		lo := 0
		for _, hi := range ends {
			vals = append(vals, arena[lo:hi:hi])
			lo = hi
		}
		if err := combine(key, vals, emit); err != nil {
			return emitted, consumed, fmt.Errorf("kvio: combine: %w", err)
		}
	}
}
