package kvio

// Raw-segment access for the pipelined shuffle. A shuffle copier stages
// the raw bytes of one partition segment (ReadSegment) on the reduce
// side's staging node long before the reduce attempt runs; the attempt
// later decodes the staged copy (NewBytesSegmentStream) instead of
// re-reading the map output across the fabric. Both on-disk run formats
// decode from a plain byte stream, so a staged copy is indistinguishable
// from the original positioned read.

import (
	"fmt"
	"io"

	"mrtext/internal/vdisk"
)

// ReadSegment reads the raw on-disk bytes of partition part of the run
// described by idx. The returned bytes, decoded with NewBytesSegmentStream
// (honoring idx.Compressed), yield exactly the records OpenRunPart would.
// An empty partition is nil bytes and no disk operation.
func ReadSegment(disk vdisk.Disk, idx RunIndex, part int) ([]byte, error) {
	if part < 0 || part >= len(idx.Segments) {
		return nil, fmt.Errorf("kvio: run %q has no partition %d", idx.Name, part)
	}
	seg := idx.Segments[part]
	if seg.Len == 0 {
		return nil, nil
	}
	rc, err := disk.OpenSection(idx.Name, seg.Off, seg.Len)
	if err != nil {
		return nil, fmt.Errorf("kvio: reading run %q part %d: %w", idx.Name, part, err)
	}
	buf := make([]byte, seg.Len)
	_, rerr := io.ReadFull(rc, buf)
	cerr := rc.Close()
	if rerr != nil {
		return nil, fmt.Errorf("kvio: reading run %q part %d: %w", idx.Name, part, rerr)
	}
	if cerr != nil {
		return nil, fmt.Errorf("kvio: reading run %q part %d: close: %w", idx.Name, part, cerr)
	}
	return buf, nil
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
