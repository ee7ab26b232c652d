package kvio

// Raw-segment access for the pipelined shuffle. A shuffle copier stages
// the raw bytes of a run's partition segments (ReadRun) on the reduce
// side's staging nodes long before the reduce attempts run; an attempt
// later decodes the staged copy (NewBytesSegmentStream) instead of
// re-reading the map output across the fabric. Both on-disk run formats
// decode from a plain byte stream, so a staged copy is indistinguishable
// from the original positioned read.

import (
	"fmt"
	"io"

	"mrtext/internal/vdisk"
)

// ReadRun reads the raw on-disk bytes of partitions parts, ascending, of
// the run described by idx, with one open of the run and one pass from the
// first of them to the end of the last. Each stretch of listed partitions
// that lie next to each other in the file — empty ones between them
// included — is one read into one buffer, which their segments share; the
// bytes of a partition between two listed ones are read and dropped. Each
// returned segment, decoded with NewBytesSegmentStream (honoring
// idx.Compressed), yields exactly the records OpenRunPart would. An empty
// partition is nil bytes; a list of empty partitions touches no disk.
func ReadRun(disk vdisk.Disk, idx RunIndex, parts []int) ([][]byte, error) {
	lo, hi := int64(-1), int64(0) // the listed segments' byte range
	for i, p := range parts {
		if p < 0 || p >= len(idx.Segments) || i > 0 && p <= parts[i-1] {
			return nil, fmt.Errorf("kvio: run %q: partitions %v are not ascending partitions of %d", idx.Name, parts, len(idx.Segments))
		}
		if seg := idx.Segments[p]; seg.Len > 0 {
			if lo < 0 {
				lo = seg.Off
			}
			hi = seg.Off + seg.Len
		}
	}
	out := make([][]byte, len(parts))
	if lo < 0 {
		return out, nil
	}
	rc, err := disk.OpenSection(idx.Name, lo, hi-lo)
	if err != nil {
		return nil, fmt.Errorf("kvio: reading run %q: %w", idx.Name, err)
	}
	at := lo // the reader's file offset
	for i := 0; i < len(parts) && err == nil; {
		// parts[i:j] is a stretch: each segment starts where the one
		// before it ends.
		start, end, j := idx.Segments[parts[i]].Off, idx.Segments[parts[i]].Off, i
		for ; j < len(parts) && idx.Segments[parts[j]].Off == end; j++ {
			end += idx.Segments[parts[j]].Len
		}
		if start == end {
			i = j
			continue
		}
		if gap := start - at; gap > 0 {
			if _, err = io.CopyN(io.Discard, rc, gap); err != nil {
				break
			}
		}
		buf := make([]byte, end-start)
		if _, err = io.ReadFull(rc, buf); err != nil {
			break
		}
		for ; i < j; i++ {
			seg := idx.Segments[parts[i]]
			if seg.Len > 0 {
				out[i] = buf[seg.Off-start : seg.Off-start+seg.Len : seg.Off-start+seg.Len]
			}
		}
		at = end
	}
	if cerr := rc.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, fmt.Errorf("kvio: reading run %q: %w", idx.Name, err)
	}
	return out, nil
}

// ReadSegment is ReadRun of the one partition part.
func ReadSegment(disk vdisk.Disk, idx RunIndex, part int) ([]byte, error) {
	segs, err := ReadRun(disk, idx, []int{part})
	if err != nil {
		return nil, err
	}
	return segs[0], nil
}

// CompressSegment transcodes a plain-format segment (as returned by
// ReadSegment on an uncompressed run) into the prefix-compressed run
// format. The result decodes with NewBytesSegmentStream(out, true) to
// exactly the records of the input. An empty segment transcodes to an
// empty (nil) segment.
//
// Retired: the runtime no longer transcodes segments. Exported only
// because the frozen bench/drills.go calls it; the next benchmark PR
// drops it with its drill.
func CompressSegment(raw []byte) ([]byte, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	st := NewBytesSegmentStream(raw, false)
	defer st.Close()
	out := make([]byte, 0, len(raw))
	var prev []byte
	for {
		k, v, err := st.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("kvio: compressing segment: %w", err)
		}
		out = appendPrefixedKV(out, prev, k, v)
		// Streams may reuse the key buffer across Next calls; keep a
		// stable copy for the next frame's shared-prefix computation.
		prev = append(prev[:0], k...)
	}
}
